package serve

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// Native fuzz targets for the wire codec (ROADMAP 1(c), first slice). The
// codec claims parity with the strconv and bufio calls it replaced; each
// target holds it to that reference on whatever bytes the fuzzer finds.
// `go test` runs the seeds; nightly.yml runs each target under -fuzz for a
// minute. The seeds are wire_test.go's tables and the argument tokens and
// framings the golden transcript (pipeline_test.go) sends.

// goldenTokens are the key and count arguments of the golden transcript's
// requests, well-formed and not.
var goldenTokens = []string{"5", "zero", "-1", "+1", "5 6", "0x10", "0", "1001", "0005", "1000",
	"18446744073709551615", "18446744073709551616", "x", "+2", "-3", "-4", "2 3", "9", "129", " 5", "5 extra"}

func FuzzParseUint(f *testing.F) {
	for _, s := range append(uintCases, goldenTokens...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, werr := strconv.ParseUint(string(b), 10, 64)
		got, ok := parseUintBytes(b)
		if ok != (werr == nil) || (ok && got != want) {
			t.Fatalf("parseUintBytes(%q) = %d, %v; strconv.ParseUint = %d, %v", b, got, ok, want, werr)
		}
	})
}

// FuzzParseCount holds parseCount to its documented rule — a decimal, an
// optional sign before it, at least 1 (and at most 1<<62, parseIntBytes's
// stated bound) — with strconv.ParseInt reading the decimal, and a
// rejection to carrying the offending token.
func FuzzParseCount(f *testing.F) {
	for _, s := range append(append(intCases, uintCases...), goldenTokens...) {
		f.Add([]byte(s))
	}
	f.Add([]byte("4611686018427387904")) // 1<<62, the last count accepted
	f.Add([]byte("4611686018427387905"))
	f.Fuzz(func(t *testing.T, b []byte) {
		want, werr := strconv.ParseInt(string(b), 10, 64)
		wantOK := werr == nil && want >= 1 && want <= 1<<62
		got, we := parseCount(b)
		switch {
		case wantOK && (we.code != wireOK || int64(got) != want):
			t.Fatalf("parseCount(%q) = %d, code %d; want %d accepted", b, got, we.code, want)
		case !wantOK && (we.code != errBadCount || !bytes.Equal(we.arg, b)):
			t.Fatalf("parseCount(%q) = %d, %+v; want errBadCount carrying the token", b, got, we)
		}
	})
}

// FuzzLineScanner feeds the same bytes to a scanner over a reader that
// hands them over whole and to one over a reader that hands over a byte at
// a time (a line split across TCP segments, at every offset), under a reader
// buffer of the fuzzer's choosing, and holds both to bufio's
// ReadString + TrimRight framing: the same lines, the same errors, in the
// same places.
func FuzzLineScanner(f *testing.F) {
	long := strings.Repeat("x", 5000)
	for _, s := range []string{
		"GET 1\nSET 2\r\nDEL 3\r\r\n\n", "short\n" + long + "\r\ntail\n", "LEN\nGET 7", "LEN\n" + strings.Repeat("9", 300),
		strings.Repeat("z", 64) + "\n", strings.Repeat("k", 15) + "\n" + strings.Repeat("k", 16) + "\n" + strings.Repeat("k", 17) + "\r\n",
		"\n GET 5\nFROB 1\nMULTI 2\nSET zero\nGET 1\nMULTI +2\nDEL 803\nDEL 804\nASCEND 1 +2\nASCEND  5\nSLOWLOG 4\nINFO\nMULTI 129\n",
		"", "\r", "\r\n\r", "a\rb\n",
	} {
		f.Add([]byte(s), uint8(0))
		f.Add([]byte(s), uint8(48))
	}
	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		bufSize := 16 + int(size) // bufio's minimum, and up
		whole := NewLineScanner(bufio.NewReaderSize(bytes.NewReader(data), bufSize))
		single := NewLineScanner(bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(data)), bufSize))
		ref := bufio.NewReader(bytes.NewReader(data))
		for i := 0; ; i++ {
			refLine, refErr := ref.ReadString('\n')
			want := strings.TrimRight(refLine, "\r\n")
			for name, sc := range map[string]*LineScanner{"whole": whole, "byte at a time": single} {
				line, err := sc.Line()
				if string(line) != want || err != refErr {
					t.Fatalf("line %d, %s reader, buffer %d: %q, %v; ReadString+TrimRight: %q, %v",
						i, name, bufSize, line, err, want, refErr)
				}
			}
			if refErr != nil {
				return
			}
		}
	})
}
