package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"hohtx/internal/sets"
	"hohtx/internal/tree"
)

// TestLineScannerShortLines checks the common path: lines inside the
// reader buffer come back trimmed, in order, aliasing the bufio buffer.
func TestLineScannerShortLines(t *testing.T) {
	src := "GET 1\nSET 2\r\nDEL 3\r\r\n\n"
	sc := NewLineScanner(bufio.NewReaderSize(strings.NewReader(src), 64))
	want := []string{"GET 1", "SET 2", "DEL 3", ""}
	for i, w := range want {
		line, err := sc.Line()
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if string(line) != w {
			t.Fatalf("line %d = %q, want %q", i, line, w)
		}
	}
	if _, err := sc.Line(); err != io.EOF {
		t.Fatalf("after end: err = %v, want EOF", err)
	}
}

// TestLineScannerGrowAndRetry drives lines far past the reader buffer
// through the grow-and-retry path and checks they parse identically to
// what bufio.ReadString would have produced.
func TestLineScannerGrowAndRetry(t *testing.T) {
	long := strings.Repeat("x", 5000)
	src := "short\n" + long + "\r\n" + "tail\n"
	sc := NewLineScanner(bufio.NewReaderSize(strings.NewReader(src), 64))
	for i, w := range []string{"short", long, "tail"} {
		line, err := sc.Line()
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if string(line) != w {
			t.Fatalf("line %d: got %d bytes (%q...), want %d", i, len(line), line[:min(16, len(line))], len(w))
		}
	}
}

// TestLineScannerUnterminatedTail mirrors the ReadString contract the
// serving loop relies on: a final line with no newline comes back with
// its data AND a non-nil error, so the server can answer the request
// before dropping the connection.
func TestLineScannerUnterminatedTail(t *testing.T) {
	for _, tail := range []string{"GET 7", strings.Repeat("9", 300)} {
		sc := NewLineScanner(bufio.NewReaderSize(strings.NewReader("LEN\n"+tail), 64))
		if line, err := sc.Line(); err != nil || string(line) != "LEN" {
			t.Fatalf("first line = %q, %v", line, err)
		}
		line, err := sc.Line()
		if err == nil {
			t.Fatalf("unterminated tail: want error, got nil (line %q)", line)
		}
		if string(line) != tail {
			t.Fatalf("unterminated tail = %q, want %q", line, tail)
		}
	}
}

// uintCases and intCases are the parsers' tables, and the fuzz targets'
// first seeds (fuzz_test.go).
var (
	uintCases = []string{"0", "1", "007", "42", "18446744073709551615", // max uint64
		"", "-1", "+1", " 1", "1 ", "x", "12x", "18446744073709551616", "99999999999999999999"}
	intCases = []string{"0", "1", "-3", "+3", "4096", "", "-", "x", "1.5"}
)

func TestParseUintBytes(t *testing.T) {
	for _, c := range uintCases {
		want, werr := strconv.ParseUint(c, 10, 64)
		got, ok := parseUintBytes([]byte(c))
		if ok != (werr == nil) || (ok && got != want) {
			t.Errorf("parseUintBytes(%q) = %d,%v; strconv = %d,%v", c, got, ok, want, werr)
		}
	}
}

func TestParseIntBytes(t *testing.T) {
	for _, c := range intCases {
		want, werr := strconv.Atoi(c)
		got, ok := parseIntBytes([]byte(c))
		if ok != (werr == nil) || (ok && got != want) {
			t.Errorf("parseIntBytes(%q) = %d,%v; strconv = %d,%v", c, got, ok, want, werr)
		}
	}
}

// wireErrCases are diagnoses beside the fmt.Errorf strings the protocol has
// always produced for them (bound 9999), and FuzzAppendWireErr's first seeds.
var wireErrCases = []struct {
	we   wireErr
	want string
}{
	{wireErr{code: errMissingKey}, "missing key"},
	{wireErr{code: errBadKey, arg: []byte("zero")}, fmt.Sprintf("bad key %q", "zero")},
	{wireErr{code: errBadKey, arg: []byte("1\x00x")}, fmt.Sprintf("bad key %q", "1\x00x")},
	{wireErr{code: errKeyRange, key: 123456}, fmt.Sprintf("key %d out of range [1, %d]", 123456, 9999)},
	{wireErr{code: errNotKeyOp}, "not a key op"},
	{wireErr{code: errBadCount, arg: []byte("+0")}, fmt.Sprintf("bad count %q", "+0")},
	{wireErr{code: errOversize, key: 10000}, fmt.Sprintf("batch of %d exceeds max %d", 10000, 9999)},
	{wireErr{code: errBadKey, op: 3, arg: []byte("zero")}, fmt.Sprintf("op %d: bad key %q", 2, "zero")},
}

// TestWireErrMessages pins the rendered diagnoses byte-for-byte to those
// strings, so replacing the heap-allocated errors with value diagnoses is
// invisible on the wire.
func TestWireErrMessages(t *testing.T) {
	for _, c := range wireErrCases {
		if got := string(appendWireErr(nil, c.we, 9999)); got != c.want {
			t.Errorf("appendWireErr(%+v) = %q, want %q", c.we, got, c.want)
		}
	}
}

func TestCutSpace(t *testing.T) {
	if v, r := cutSpace([]byte("SET 42")); string(v) != "SET" || string(r) != "42" {
		t.Fatalf("cutSpace(SET 42) = %q, %q", v, r)
	}
	if v, r := cutSpace([]byte("LEN")); string(v) != "LEN" || r != nil {
		t.Fatalf("cutSpace(LEN) = %q, %v", v, r)
	}
	if v, r := cutSpace([]byte("ASCEND 1 8")); string(v) != "ASCEND" || string(r) != "1 8" {
		t.Fatalf("cutSpace = %q, %q", v, r)
	}
}

func TestTrimEOL(t *testing.T) {
	for in, want := range map[string]string{
		"a\n": "a", "a\r\n": "a", "a\r\r\n": "a", "a": "a", "\n": "", "": "",
	} {
		if got := string(trimEOL([]byte(in))); got != want {
			t.Errorf("trimEOL(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestScannerMatchesReadString cross-checks the scanner against the old
// ReadString+TrimRight framing over a mixed stream, including a line that
// exactly fills the buffer (the off-by-one ErrBufferFull case).
func TestScannerMatchesReadString(t *testing.T) {
	var src bytes.Buffer
	for i := 0; i < 40; i++ {
		src.WriteString(strings.Repeat("k", i*7) + "\n")
	}
	src.WriteString(strings.Repeat("z", 64) + "\n") // exactly the buffer size with \n past it
	ref := bufio.NewReader(bytes.NewReader(src.Bytes()))
	sc := NewLineScanner(bufio.NewReaderSize(bytes.NewReader(src.Bytes()), 64))
	for {
		wantLine, wantErr := ref.ReadString('\n')
		line, err := sc.Line()
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("err mismatch: scanner %v, ReadString %v", err, wantErr)
		}
		if got, want := string(line), strings.TrimRight(wantLine, "\r\n"); got != want {
			t.Fatalf("line mismatch: %q vs %q", got, want)
		}
		if err != nil {
			break
		}
	}
}

// TestClientRequestsParseBack renders every request the client half of the
// codec writes — each point kind and ASCEND, keys 1, MaxKey and random ones,
// scan lengths 1 and 64, and MULTI headers — and parses each back through
// the server's own verb table and parsers to what was rendered.
func TestClientRequestsParseBack(t *testing.T) {
	const maxKey = uint64(tree.MaxKey)
	s := &Server{maxKey: maxKey}
	keys, x := []uint64{1, maxKey}, uint64(7)
	for range 32 {
		x = x*6364136223846793005 + 1442695040888963407
		keys = append(keys, 1+x%maxKey, 1+x>>40)
	}
	line := func(b []byte) []byte {
		t.Helper()
		if bytes.IndexByte(b, '\n') != len(b)-1 {
			t.Fatalf("%q is not one newline-terminated line", b)
		}
		return b[:len(b)-1]
	}
	for _, key := range keys {
		for _, kind := range []sets.OpKind{sets.OpLookup, sets.OpInsert, sets.OpRemove} {
			want := sets.Op{Kind: kind, Key: key}
			b := AppendRequest(nil, want, 0)
			if got, we := s.parseOp(line(b)); we.code != wireOK || got != want {
				t.Errorf("%q parses to %+v (code %d), rendered from %+v", b, got, we.code, want)
			}
		}
		for _, n := range []int{1, 64} {
			b := AppendRequest(nil, sets.Op{Kind: sets.OpInsert, Key: key}, n)
			name, args := cutSpace(line(b))
			loArg, nArg := cutSpace(args)
			lo, we := s.parseKey(loArg)
			cnt, ce := parseCount(nArg)
			if lookupVerb(name).name != "ASCEND" || we.code != wireOK || ce.code != wireOK || lo != key || cnt != n {
				t.Errorf("%q parses to verb %q lo %d n %d, rendered from ASCEND %d %d", b, lookupVerb(name).name, lo, cnt, key, n)
			}
		}
	}
	for _, n := range []int{1, 2, 16, 129} {
		b := AppendMulti(nil, n)
		name, arg := cutSpace(line(b))
		if cnt, we := parseCount(arg); lookupVerb(name).name != "MULTI" || we.code != wireOK || cnt != n {
			t.Errorf("%q parses to verb %q count %d, rendered from MULTI %d", b, lookupVerb(name).name, cnt, n)
		}
	}
}
