package serve

import (
	"io"
	"testing"
)

// chunkReader hands out one chunk per Read, the way a socket hands out TCP
// segments.
type chunkReader []string

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(*r) == 0 {
		return 0, io.EOF
	}
	n := copy(p, (*r)[0])
	if (*r)[0] = (*r)[0][n:]; (*r)[0] == "" {
		*r = (*r)[1:]
	}
	return n, nil
}

// TestStampChain pins when a request may start on the previous request's
// end stamp: only directly after a traced request, and only when its line
// was read without going back to the network — whole out of the buffer, not
// split across segments, MULTI body lines included. A line that finishes no
// span breaks the chain too (its cost must not land in the next request's
// lease remainder). An untraced server never stamps.
func TestStampChain(t *testing.T) {
	segments := []string{
		"SET 1\nGET 1\nLEN\nGET 1\nGET zero\nDEL 1\nGE", // the last line's head only
		"T 2\nSET 2\nMULTI 2\nSET 3\n",                  // a frame one body line short
		"SET 4\nGET 4\n",
	}
	// Per line served: did it start on its predecessor's end stamp, and is
	// there an end stamp after it for the next to start on.
	type link struct{ chained, set bool }
	want := []link{
		{false, true},  // SET 1: first of its segment
		{true, true},   // GET 1
		{false, false}, // LEN finishes no span
		{false, true},  // GET 1
		{false, false}, // GET zero is rejected
		{false, true},  // DEL 1
		{false, true},  // GET 2 waited for its tail
		{true, true},   // SET 2
		{false, true},  // MULTI 2 waited for its body
		{true, true},   // GET 4
	}
	for _, cfg := range allocConfigs {
		srv := newAllocServer(t, 1, cfg.traced)
		src := append(chunkReader(nil), segments...)
		c := srv.newConn(&src, io.Discard)
		t.Cleanup(c.endBurst)
		for i, w := range want {
			line, err := c.sc.Line()
			if err != nil {
				t.Fatalf("%s: scan: %v", cfg.name, err)
			}
			end := c.last
			if !c.serveLine(line) {
				t.Fatalf("%s: connection dropped at %q", cfg.name, line)
			}
			// A request that chained starts exactly where the last one ended.
			got := link{end != 0 && c.sp.TotalNs() == uint64(c.last-end), c.last != 0}
			if !cfg.traced {
				w = link{}
			}
			if got != w {
				t.Errorf("%s: line %d: chained/set = %v, want %v", cfg.name, i+1, got, w)
			}
		}
		if c.sc.Line(); c.last != 0 { // the script is spent: the next read waits
			t.Errorf("%s: a read that reached the network kept the chain", cfg.name)
		}
	}
}
