package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"hohtx/internal/sets"
)

// Native fuzz targets for the wire codec (ROADMAP 1(c)). The codec claims
// parity with the strconv, bufio and fmt calls it replaced; each target
// holds it to that reference on whatever bytes the fuzzer finds. `go test`
// runs the seeds; nightly.yml runs each target under -fuzz for a minute.
// The seeds are wire_test.go's tables and the argument tokens, body lines
// and framings the golden transcript (pipeline_test.go) sends. The one
// target above the codec, FuzzServeMulti (a whole MULTI frame through a
// loopback server), sits in pipeline_test.go beside the wire model it is
// held to.

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

// refWireErr is the diagnosis as the fmt.Errorf calls worded it before it
// became a value: fmt's %q and %d, and an "op <i>: " scope inside a MULTI
// body.
func refWireErr(we wireErr, bound uint64) string {
	scope := ""
	if we.op > 0 {
		scope = fmt.Sprintf("op %d: ", we.op-1)
	}
	switch we.code {
	case errMissingKey:
		return scope + "missing key"
	case errBadKey:
		return scope + fmt.Sprintf("bad key %q", we.arg)
	case errKeyRange:
		return scope + fmt.Sprintf("key %d out of range [1, %d]", we.key, bound)
	case errNotKeyOp:
		return scope + "not a key op"
	case errBadCount:
		return scope + fmt.Sprintf("bad count %q", we.arg)
	case errOversize:
		return scope + fmt.Sprintf("batch of %d exceeds max %d", we.key, bound)
	}
	return scope
}

// FuzzAppendWireErr holds appendWireErr to fmt's rendering of the same
// diagnosis — the quoting of an arbitrary offending token above all (%q
// escapes control bytes, quotes, invalid UTF-8) — and to append's contract:
// what dst already held stays in front.
func FuzzAppendWireErr(f *testing.F) {
	for _, c := range wireErrCases {
		f.Add(c.we.code, c.we.op, c.we.arg, c.we.key, uint64(9999))
	}
	for _, tok := range goldenTokens {
		f.Add(errBadKey, int32(0), []byte(tok), uint64(0), uint64(1000))
		f.Add(errBadCount, int32(2), []byte(tok), uint64(0), uint64(8))
	}
	f.Add(errBadKey, int32(1), []byte("\"\\\xff\u2028\x7f\t"), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, code uint8, op int32, arg []byte, key, bound uint64) {
		we := wireErr{code: code, op: op, arg: arg, key: key}
		want := "ERR " + refWireErr(we, bound)
		if got := string(appendWireErr([]byte("ERR "), we, bound)); got != want {
			t.Fatalf("appendWireErr(%+v, %d) = %q; fmt renders %q", we, bound, got, want)
		}
	})
}

// refParseOp is parseOp as the protocol grammar words it, on strings: the
// verb is what precedes the first space, the key argument everything after
// it, a decimal in [1, maxKey] that strconv reads. It returns the op, or
// the diagnosis fmt renders.
func refParseOp(line string, maxKey uint64) (sets.Op, string) {
	name, arg, _ := strings.Cut(line, " ")
	kind, point := map[string]sets.OpKind{"GET": sets.OpLookup, "SET": sets.OpInsert, "DEL": sets.OpRemove}[name]
	switch key, err := strconv.ParseUint(arg, 10, 64); {
	case !point:
		return sets.Op{}, "not a key op"
	case arg == "":
		return sets.Op{}, "missing key"
	case err != nil:
		return sets.Op{}, fmt.Sprintf("bad key %q", arg)
	case key < 1 || key > maxKey:
		return sets.Op{}, fmt.Sprintf("key %d out of range [1, %d]", key, maxKey)
	default:
		return sets.Op{Kind: kind, Key: key}, ""
	}
}

// FuzzParseOp holds a MULTI body line's parse (parseOp: lookupVerb, then
// parseKey) to refParseOp — the same op, or the same diagnosis once
// rendered — and a line that is well formed as strings.Fields sees it (a
// point verb, one space, digits in range, nothing else) to acceptance.
func FuzzParseOp(f *testing.F) {
	for _, verb := range []string{"GET", "SET", "DEL", "get", "LEN", "MULTI", "ASCEND", "", "GETX", "GE"} {
		f.Add([]byte(verb), uint64(1000))
		for _, tok := range append(uintCases, goldenTokens...) {
			f.Add([]byte(verb+" "+tok), uint64(1000))
		}
	}
	for _, line := range []string{" GET 5", "GET  5", "GET\t5", "SET 5\r", "DEL 5 ", "GET 18446744073709551615", "FROB 1", "SET zero"} {
		f.Add([]byte(line), uint64(1000))
		f.Add([]byte(line), ^uint64(0))
	}
	f.Fuzz(func(t *testing.T, line []byte, maxKey uint64) {
		s := &Server{maxKey: maxKey}
		wantOp, wantDiag := refParseOp(string(line), maxKey)
		op, we := s.parseOp(line)
		if diag := string(appendWireErr(nil, we, maxKey)); diag != wantDiag || (diag == "" && op != wantOp) {
			t.Fatalf("parseOp(%q), max key %d = %+v, %q; the grammar on strings gives %+v, %q", line, maxKey, op, diag, wantOp, wantDiag)
		}
		if fs := strings.Fields(string(line)); len(fs) == 2 && strings.Join(fs, " ") == string(line) {
			key, err := strconv.ParseUint(fs[1], 10, 64)
			wellFormed := (fs[0] == "GET" || fs[0] == "SET" || fs[0] == "DEL") && err == nil && key >= 1 && key <= maxKey
			if wellFormed != (we.code == wireOK) || (wellFormed && op.Key != key) {
				t.Fatalf("parseOp(%q), max key %d = %+v, code %d; as fields %q it is well formed: %v", line, maxKey, op, we.code, fs, wellFormed)
			}
		}
	})
}

// FuzzReadReply holds the client's reply reader to the reply grammar read
// off strings: a point reply is one line, 1 or 0; a scan's is OK <key>
// lines through END. Whatever the bytes, ReadReply returns what that
// grammar reads, an ErrReply naming the first line it does not allow, or a
// read error where the bytes end first, and hands over the keys read up to
// there; it never panics.
func FuzzReadReply(f *testing.F) {
	for _, s := range []string{"1\n", "0\n", "OK 5\nEND\n", "ERR x\n", "OK \n", "2\n", "END\n", "1", "",
		"OK 5\nOK 7\r\nEND\n", "OK 5\nERR scan unsupported\n", "OK 18446744073709551616\nEND\n", "OK +5\nEND\n", "1\r\n0\n",
		"OK " + strings.Repeat("9", 40) + "\nEND\n", "ERR\n", "\n", "ERR ascend: bad count \"0\"\n", "OK 5\n"} {
		f.Add([]byte(s), false)
		f.Add([]byte(s), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, scan bool) {
		var keys []uint64
		sc := NewLineScanner(bufio.NewReaderSize(bytes.NewReader(data), 16))
		hit, err := ReadReply(sc, scan, func(k uint64) { keys = append(keys, k) })
		wantHit, wantKeys, fault, bad := refReadReply(string(data), scan)
		switch {
		case !slices.Equal(keys, wantKeys):
			t.Fatalf("ReadReply(%q, scan %v) handed over keys %v, the grammar reads %v", data, scan, keys, wantKeys)
		case fault == "short" && (err == nil || errors.Is(err, ErrReply)):
			t.Fatalf("ReadReply(%q, scan %v) = %v, %v; the reply is cut short", data, scan, hit, err)
		case fault == "bad" && !errors.Is(err, ErrReply):
			t.Fatalf("ReadReply(%q, scan %v) = %v, %v; want ErrReply at %q", data, scan, hit, err, bad)
		case fault == "bad" && strings.HasPrefix(bad, "ERR ") && err.Error() != "server: "+bad:
			t.Fatalf("ReadReply(%q, scan %v) error %q, want %q", data, scan, err, "server: "+bad)
		case fault == "" && (err != nil || hit != wantHit):
			t.Fatalf("ReadReply(%q, scan %v) = %v, %v; the grammar reads %v", data, scan, hit, err, wantHit)
		}
	})
}

// refReadReply is the reply grammar on strings: the reply's value and the
// keys a scan read, and the fault that ends it early: "bad" at the first
// line the grammar does not allow, or "short" when the bytes end first.
func refReadReply(data string, scan bool) (hit bool, keys []uint64, fault, bad string) {
	for {
		i := strings.IndexByte(data, '\n')
		if i < 0 {
			return false, keys, "short", ""
		}
		line := strings.TrimRight(data[:i], "\r")
		data = data[i+1:]
		switch {
		case !scan && (line == "0" || line == "1"):
			return line == "1", keys, "", ""
		case scan && line == "END":
			return false, keys, "", ""
		case scan && strings.HasPrefix(line, "OK "):
			if k, err := strconv.ParseUint(line[3:], 10, 64); err == nil {
				keys = append(keys, k)
				continue
			}
		}
		return false, keys, "bad", line
	}
}
