package serve

import (
	"bufio"
	"errors"
	"fmt"
	"strconv"

	"hohtx/internal/sets"
)

// Zero-allocation wire codec, both halves. The protocol is newline-framed
// decimal text (see Server). The server half scans lines into reused
// buffers, parses keys straight off those bytes without materializing
// strings, and renders replies with strconv.Append* into per-connection
// scratch; the client half (AppendRequest, AppendMulti, ReadReply), which
// cmd/hohload renders and reads every request through, does the same on
// the other end. The paper's own argument motivates the discipline: its
// repro names GC interference as the central obstacle to measuring
// *precise* reclamation (PAPER.md §1), so the serving layer must not smear
// Go GC cycles over the arena's exact books. testing.AllocsPerRun pins the
// server's budget at zero in alloc_test.go, and CI runs those pins as a gate.

// LineScanner reads newline-terminated lines from a bufio.Reader into a
// reused buffer. The common case returns a slice of the reader's internal
// buffer (zero copies, zero allocations); lines longer than that buffer
// take the grow-and-retry path through the scanner's own scratch, which
// grows once and is reused for every later long line.
type LineScanner struct {
	br  *bufio.Reader
	buf []byte // overflow scratch; grow-only
}

// NewLineScanner returns a scanner over br.
func NewLineScanner(br *bufio.Reader) *LineScanner {
	return &LineScanner{br: br}
}

// Line returns the next line with every trailing '\r' and '\n' trimmed
// (the strings.TrimRight(line, "\r\n") framing the protocol has always
// used). The returned slice aliases either the reader's internal buffer
// or the scanner's scratch: it is valid only until the next Line call.
// On error the partial line read so far is returned alongside it, so a
// final unterminated request is still servable — callers distinguish a
// clean EOF (len(line) == 0) from a truncated request exactly as they
// would with bufio.ReadString.
func (ls *LineScanner) Line() ([]byte, error) {
	frag, err := ls.br.ReadSlice('\n')
	if err == nil {
		return trimEOL(frag), nil
	}
	ls.buf = ls.buf[:0]
	for {
		ls.buf = append(ls.buf, frag...)
		if err != bufio.ErrBufferFull {
			if len(ls.buf) == 0 {
				return nil, err
			}
			return trimEOL(ls.buf), err
		}
		frag, err = ls.br.ReadSlice('\n')
		if err == nil {
			ls.buf = append(ls.buf, frag...)
			return trimEOL(ls.buf), nil
		}
	}
}

// trimEOL drops every trailing '\r' and '\n'.
func trimEOL(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// cutSpace splits at the first space: "SET 42" → ("SET", "42"). A line
// with no space returns (line, nil) — the bytes analogue of strings.Cut.
func cutSpace(b []byte) (verb, rest []byte) {
	for i, c := range b {
		if c == ' ' {
			return b[:i], b[i+1:]
		}
	}
	return b, nil
}

// parseUintBytes is strconv.ParseUint(string(b), 10, 64) without the
// string: digits only (no signs, leading zeros fine), overflow rejected.
func parseUintBytes(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	const cutoff = ^uint64(0)/10 + 1
	var v uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		if v >= cutoff {
			return 0, false
		}
		v = v*10 + uint64(d)
		if v < uint64(d) {
			return 0, false
		}
	}
	return v, true
}

// parseIntBytes is strconv.Atoi without the string: an optional sign,
// then digits. Counts on the wire are small, so the int64 range check is
// only about rejecting garbage consistently with the old parser.
func parseIntBytes(b []byte) (int, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	v, ok := parseUintBytes(b)
	if !ok || v > 1<<62 {
		return 0, false
	}
	if neg {
		return -int(v), true
	}
	return int(v), true
}

// wireErr is a malformed-request diagnosis carried as a value, not an
// error: the old fmt.Errorf path built 2+ heap objects per bad line,
// which let a garbage flood allocate its way past the budget. The code
// selects one of a fixed set of messages; arg (aliasing the request
// line — render before the next read) and key feed its formatter. The
// zero value means no error.
type wireErr struct {
	code uint8
	op   int32  // 1 + the MULTI body position the diagnosis is about; 0 = not in a body
	arg  []byte // errBadKey, errBadCount: the offending token
	key  uint64 // errKeyRange: the out-of-range key; errOversize: the batch size
}

const (
	wireOK uint8 = iota
	errMissingKey
	errBadKey
	errKeyRange
	errNotKeyOp
	errBadCount
	errOversize
)

// appendWireErr renders the diagnosis (message only — the caller owns the
// "ERR " prefix and the verb's scope) into dst. bound is the limit the
// message cites: the key bound, or for errOversize the batch cap. The
// messages are byte-for-byte what the fmt.Errorf calls used to produce,
// so wire tests and clients keep matching.
func appendWireErr(dst []byte, we wireErr, bound uint64) []byte {
	if we.op > 0 {
		dst = append(dst, "op "...)
		dst = strconv.AppendInt(dst, int64(we.op-1), 10)
		dst = append(dst, ": "...)
	}
	switch we.code {
	case errMissingKey:
		return append(dst, "missing key"...)
	case errBadKey:
		dst = append(dst, "bad key "...)
		return appendQuoted(dst, we.arg)
	case errKeyRange:
		dst = append(dst, "key "...)
		dst = strconv.AppendUint(dst, we.key, 10)
		dst = append(dst, " out of range [1, "...)
		dst = strconv.AppendUint(dst, bound, 10)
		return append(dst, ']')
	case errNotKeyOp:
		return append(dst, "not a key op"...)
	case errBadCount:
		dst = append(dst, "bad count "...)
		return appendQuoted(dst, we.arg)
	case errOversize:
		dst = append(dst, "batch of "...)
		dst = strconv.AppendUint(dst, we.key, 10)
		dst = append(dst, " exceeds max "...)
		return strconv.AppendUint(dst, bound, 10)
	}
	return dst
}

// parseCount reads a request's count argument: a decimal ≥ 1.
func parseCount(arg []byte) (int, wireErr) {
	n, ok := parseIntBytes(arg)
	if !ok || n < 1 {
		return 0, wireErr{code: errBadCount, arg: arg}
	}
	return n, wireErr{}
}

// appendQuoted renders b as a double-quoted Go string the way %q would.
// AppendQuote wants a string; for the short tokens that reach this path
// the conversion stays on the stack (it is a read-only argument), so the
// quoting itself is what bounds the cost.
func appendQuoted(dst, b []byte) []byte {
	return strconv.AppendQuote(dst, string(b))
}

// ErrReply is what ReadReply's error wraps when the server answers ERR, or
// with a line the grammar does not allow where it stands.
var ErrReply = errors.New("server")

// AppendRequest renders one request line: op's point verb, named by the
// verb table's GET/SET/DEL row, and its key; or, when scan > 0, ASCEND from
// op.Key for scan keys.
func AppendRequest(dst []byte, op sets.Op, scan int) []byte {
	if scan > 0 {
		dst = strconv.AppendUint(append(dst, "ASCEND "...), op.Key, 10)
		return append(strconv.AppendInt(append(dst, ' '), int64(scan), 10), '\n')
	}
	dst = append(append(dst, verbs[op.Kind].name...), ' ')
	return append(strconv.AppendUint(dst, op.Key, 10), '\n')
}

// AppendMulti renders the header of a MULTI frame of n requests.
func AppendMulti(dst []byte, n int) []byte {
	return append(strconv.AppendInt(append(dst, "MULTI "...), int64(n), 10), '\n')
}

// ReadReply reads the reply to one request: a point reply's 1 or 0, as
// true or false, or with scan set a scan's OK lines through END, each key
// passed to fn (nil drops them). A read error comes back as the scanner
// gave it.
func ReadReply(sc *LineScanner, scan bool, fn func(key uint64)) (bool, error) {
	for {
		line, err := sc.Line()
		if err != nil {
			return false, err
		}
		switch {
		case !scan && len(line) == 1 && (line[0] == '0' || line[0] == '1'):
			return line[0] == '1', nil
		case scan && string(line) == "END":
			return false, nil
		case scan && len(line) > 3 && string(line[:3]) == "OK ":
			if key, ok := parseUintBytes(line[3:]); ok {
				if fn != nil {
					fn(key)
				}
				continue
			}
		case len(line) > 3 && string(line[:4]) == "ERR ":
			return false, fmt.Errorf("%w: %s", ErrReply, line)
		}
		return false, fmt.Errorf("%w: malformed reply %q", ErrReply, line)
	}
}

// Streams reports whether the request line's reply is a stream of lines
// through END (or an ERR line in its place), by the verb table's stream
// column.
func Streams(line []byte) bool {
	name, _ := cutSpace(line)
	return lookupVerb(name).stream
}
