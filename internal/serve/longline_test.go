package serve_test

import (
	"strings"
	"testing"

	"hohtx/internal/serve"
)

// Request lines longer than the server's 4 KiB reader buffer must parse
// identically through the scanner's grow-and-retry path. ParseUint
// accepts leading zeros, so an oversized line can still be a VALID
// request — the padding below keeps the key the same while forcing the
// line across several buffer refills.
const longPad = 5000 // zeros; line length > 4<<10 reader buffer

func TestLongLineValidRequest(t *testing.T) {
	addr := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{}).addr
	cl := dialClient(t, addr)
	padded := "SET " + strings.Repeat("0", longPad) + "42"
	got := cl.roundTrip(t, padded, "GET 42", "DEL 42")
	for i, want := range []string{"1", "1", "1"} {
		if got[i] != want {
			t.Fatalf("reply %d = %q, want %q (replies %v)", i, got[i], want, got)
		}
	}
}

func TestLongLineGarbage(t *testing.T) {
	addr := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{}).addr
	cl := dialClient(t, addr)
	garbage := "GET " + strings.Repeat("x", longPad)
	got := cl.roundTrip(t, garbage, "SET 7", "GET 7")
	if !strings.HasPrefix(got[0], `ERR bad key "xxx`) {
		t.Fatalf("garbage reply = %.40q, want ERR bad key", got[0])
	}
	// The connection survives an oversized garbage line.
	if got[1] != "1" || got[2] != "1" {
		t.Fatalf("post-garbage replies = %v, want [_, 1, 1]", got)
	}
}

// TestLongLineMultiBody drives an oversized-but-valid line through the
// MULTI body reader (a different scan loop than the top-level dispatch)
// and an oversized garbage body line through the drain path.
func TestLongLineMultiBody(t *testing.T) {
	addr := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{}).addr
	cl := dialClient(t, addr)
	pad := strings.Repeat("0", longPad)
	cl.send(t, "MULTI 3", "SET "+pad+"9", "GET "+pad+"9", "DEL 9")
	for i, want := range []string{"1", "1", "1"} {
		if got := cl.readLine(t); got != want {
			t.Fatalf("multi reply %d = %q, want %q", i, got, want)
		}
	}
	// Garbage body line: single ERR, body drained, connection intact.
	cl.send(t, "MULTI 2", "GET "+strings.Repeat("y", longPad), "GET 1")
	if got := cl.readLine(t); !strings.HasPrefix(got, `ERR multi: op 0: bad key "yyy`) {
		t.Fatalf("multi garbage reply = %.48q", got)
	}
	if got := cl.roundTrip(t, "LEN"); got[0] != "0" {
		t.Fatalf("post-multi LEN = %q, want 0", got[0])
	}
}
