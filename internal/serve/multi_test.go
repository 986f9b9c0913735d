package serve_test

import (
	"fmt"
	"strings"
	"testing"

	"hohtx/internal/serve"
	"hohtx/internal/sets"
)

// send writes the lines without reading anything back; read pulls n reply
// lines. MULTI framing is asymmetric (n+1 request lines, n replies), so
// the symmetric roundTrip helper does not fit.
func (cl *client) send(t *testing.T, lines ...string) {
	t.Helper()
	for _, l := range lines {
		cl.bw.WriteString(l)
		cl.bw.WriteByte('\n')
	}
	if err := cl.bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func (cl *client) read(t *testing.T, n int) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		line, err := cl.br.ReadString('\n')
		if err != nil {
			t.Fatalf("read reply %d/%d: %v", i+1, n, err)
		}
		out[i] = strings.TrimRight(line, "\n")
	}
	return out
}

// multi frames the ops as one MULTI batch and returns the n replies.
func (cl *client) multi(t *testing.T, ops ...string) []string {
	t.Helper()
	cl.send(t, append([]string{fmt.Sprintf("MULTI %d", len(ops))}, ops...)...)
	return cl.read(t, len(ops))
}

// TestMultiEndToEnd drives a single-shard MULTI through insert, in-batch
// read-own-writes, and removal, and checks precise reclamation holds for
// batched removes over the wire.
func TestMultiEndToEnd(t *testing.T) {
	ts := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{})
	srv, set, addr := ts.srv, ts.sh.Shard(0), ts.addr
	mem := set.(sets.MemoryReporter)
	baseline := mem.LiveNodes()
	cl := dialClient(t, addr)

	got := cl.multi(t, "SET 10", "SET 11", "GET 10", "SET 10", "DEL 12")
	want := []string{"1", "1", "1", "0", "0"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch reply %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
	if srv.Len() != 2 {
		t.Fatalf("Len after batch = %d, want 2", srv.Len())
	}

	// Same-key sequence inside one batch: the transaction sees its own
	// writes, so insert→remove→lookup lands back at absent.
	got = cl.multi(t, "DEL 10", "GET 10", "SET 10", "DEL 10", "GET 10")
	want = []string{"1", "0", "1", "1", "0"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("same-key reply %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}

	if r := cl.multi(t, "DEL 11")[0]; r != "1" {
		t.Fatalf("DEL 11 -> %q", r)
	}
	if live := mem.LiveNodes(); live != baseline {
		t.Fatalf("live nodes after batched removes = %d, want baseline %d", live, baseline)
	}
	if srv.Len() != 0 {
		t.Fatalf("Len = %d, want 0", srv.Len())
	}
}

// TestMultiMalformedCount checks every malformed count shape gets exactly
// one ERR line, executes nothing, and leaves the connection usable.
func TestMultiMalformedCount(t *testing.T) {
	addr := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{}).addr
	cl := dialClient(t, addr)
	for _, req := range []string{"MULTI", "MULTI x", "MULTI 0", "MULTI -3", "MULTI 1.5"} {
		cl.send(t, req)
		if got := cl.read(t, 1)[0]; !strings.HasPrefix(got, "ERR multi: bad count") {
			t.Errorf("%q -> %q, want ERR multi: bad count", req, got)
		}
	}
	// The connection survived; framing is intact.
	if r := cl.roundTrip(t, "SET 3", "GET 3")[1]; r != "1" {
		t.Fatalf("post-error GET -> %q, want 1", r)
	}
}

// TestMultiOversized checks a batch above MaxBatch is rejected with one
// ERR line, its body is drained so the connection stays in frame, and a
// batch beyond the drain bound drops the connection instead.
func TestMultiOversized(t *testing.T) {
	addr := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{MaxBatch: 4}).addr
	cl := dialClient(t, addr)

	// 5 > MaxBatch=4: rejected, body consumed, nothing executed.
	cl.send(t, "MULTI 5", "SET 1", "SET 2", "SET 3", "SET 4", "SET 5")
	if got := cl.read(t, 1)[0]; !strings.HasPrefix(got, "ERR multi: batch of 5 exceeds max 4") {
		t.Fatalf("oversized -> %q", got)
	}
	// In frame: the next command is parsed as a command, not as body.
	if r := cl.roundTrip(t, "GET 1")[0]; r != "0" {
		t.Fatalf("GET 1 after rejected batch -> %q, want 0 (batch must not execute)", r)
	}

	// Beyond MaxBatch×drain-factor the server refuses to stream the body
	// and drops the connection after the ERR line.
	cl2 := dialClient(t, addr)
	cl2.send(t, "MULTI 1000")
	if got := cl2.read(t, 1)[0]; !strings.HasPrefix(got, "ERR multi: batch of 1000 exceeds max 4") {
		t.Fatalf("huge batch -> %q", got)
	}
	if _, err := cl2.br.ReadString('\n'); err == nil {
		t.Fatalf("connection survived an undrainable batch")
	}
}

// TestMultiBadBody checks a body line that fails to parse rejects the
// whole batch — no partial execution — while the remaining body is
// drained and the connection survives.
func TestMultiBadBody(t *testing.T) {
	addr := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{}).addr
	cl := dialClient(t, addr)
	cl.send(t, "MULTI 3", "SET 20", "LEN", "SET 21")
	if got := cl.read(t, 1)[0]; !strings.HasPrefix(got, "ERR multi: op 1:") {
		t.Fatalf("bad body -> %q", got)
	}
	// Neither the op before nor after the bad line executed.
	got := cl.roundTrip(t, "GET 20", "GET 21")
	if got[0] != "0" || got[1] != "0" {
		t.Fatalf("after rejected batch GET 20/21 -> %v, want all 0", got)
	}
}

// TestMultiInterleaved pipelines MULTI frames between plain verbs in one
// burst and checks the replies come back in request order.
func TestMultiInterleaved(t *testing.T) {
	addr := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{}).addr
	cl := dialClient(t, addr)
	cl.send(t,
		"SET 1",
		"MULTI 3", "SET 2", "GET 1", "DEL 1",
		"GET 1",
		"MULTI 2", "SET 3", "GET 2",
		"LEN",
	)
	got := cl.read(t, 8)
	want := []string{"1", "1", "1", "1", "0", "1", "1", "2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reply %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

// TestMultiSharded spans a batch across both shards of a 2-shard server:
// every op still gets its reply in order, and INFO discloses the weaker
// cross-shard contract as multi=per-shard.
func TestMultiSharded(t *testing.T) {
	ts := startServer(t, newSharded(t, 2, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{})
	cl := dialClient(t, ts.addr)

	// Keys 1..8 split across shards by ShardOf; the batch mixes them.
	var ops []string
	for k := 1; k <= 8; k++ {
		ops = append(ops, fmt.Sprintf("SET %d", k))
	}
	for i, r := range cl.multi(t, ops...) {
		if r != "1" {
			t.Fatalf("sharded batch SET %d -> %q", i+1, r)
		}
	}
	got := cl.multi(t, "GET 1", "DEL 2", "GET 2", "SET 2", "DEL 5", "GET 8")
	want := []string{"1", "1", "0", "1", "1", "1"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mixed reply %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
	if n := ts.srv.Len(); n != 7 {
		t.Fatalf("Len = %d, want 7", n)
	}

	info := cl.roundTrip(t, "INFO")[0]
	for _, wantField := range []string{"shards=2 ", "multi=per-shard", "maxbatch=", "commits=", "ro_commits=", "rw_commits=", "serial=", "aborts="} {
		if !strings.Contains(info, wantField) {
			t.Errorf("sharded INFO %q missing %q", info, wantField)
		}
	}
}

// TestMultiInfoAtomic checks a single-shard server advertises the strong
// contract.
func TestMultiInfoAtomic(t *testing.T) {
	addr := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{}).addr
	cl := dialClient(t, addr)
	info := cl.roundTrip(t, "INFO")[0]
	if !strings.Contains(info, "multi=atomic") {
		t.Fatalf("single-shard INFO %q missing multi=atomic", info)
	}
}

// TestMultiAutoBatch checks transparent coalescing is invisible at the
// protocol level: a server with AutoBatch set answers a pipelined burst
// of plain verbs exactly like an unbatched one, including interleaved
// non-key verbs and malformed lines, and the memory books still balance.
func TestMultiAutoBatch(t *testing.T) {
	ts := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{AutoBatch: 4})
	srv, set, addr := ts.srv, ts.sh.Shard(0), ts.addr
	mem := set.(sets.MemoryReporter)
	baseline := mem.LiveNodes()
	cl := dialClient(t, addr)

	const n = 50
	var reqs, want []string
	for k := 1; k <= n; k++ {
		reqs = append(reqs, fmt.Sprintf("SET %d", k))
		want = append(want, "1")
	}
	reqs = append(reqs, "LEN", "SET zero")
	want = append(want, fmt.Sprint(n), "ERR bad key \"zero\"")
	for k := 1; k <= n; k++ {
		reqs = append(reqs, fmt.Sprintf("DEL %d", k))
		want = append(want, "1")
	}
	got := cl.roundTrip(t, reqs...)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("auto-batched reply %d (%q) = %q, want %q", i, reqs[i], got[i], want[i])
		}
	}
	if live := mem.LiveNodes(); live != baseline {
		t.Fatalf("live nodes after auto-batched storm = %d, want baseline %d", live, baseline)
	}
	if srv.Len() != 0 {
		t.Fatalf("Len = %d, want 0", srv.Len())
	}
}
