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

// TestMultiAutoBatch: the server coalesces every pipelined burst of point
// requests into one pass per shard, and that is invisible at the protocol
// level. The same requests, pipelined to one server and sent one at a time
// to a twin, answer byte for byte alike — interleaved non-key verbs and a
// malformed line included, and with the last shard's lease shed mid-burst,
// where the requests that shard owns answer ERR and the rest still run —
// and both servers' books balance at the drain.
func TestMultiAutoBatch(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pc := serve.PoolConfig{Slots: 1, MaxWaiters: 1}
			piped := startServer(t, newSharded(t, shards, 1), pc, serve.ServerConfig{})
			alone := startServer(t, newSharded(t, shards, 1), pc, serve.ServerConfig{})
			pcl, acl := dialClient(t, piped.addr), dialClient(t, alone.addr)
			same := func(what string, reqs []string) {
				t.Helper()
				got := strings.Join(pcl.roundTrip(t, reqs...), "\n")
				var want []string
				for _, r := range reqs {
					want = append(want, acl.roundTrip(t, r)...)
				}
				if got != strings.Join(want, "\n") {
					t.Fatalf("%s: pipelined\n%s\none at a time\n%s", what, got, strings.Join(want, "\n"))
				}
			}

			const n = 50
			var reqs []string
			for k := 1; k <= n; k++ {
				reqs = append(reqs, fmt.Sprintf("SET %d", k), fmt.Sprintf("GET %d", n+1-k))
			}
			reqs = append(reqs, "LEN", "SET zero", "GET 7", "DEL 7", "DEL 7", "SET 7", "LEN")
			for k := 1; k <= n; k += 2 {
				reqs = append(reqs, fmt.Sprintf("DEL %d", k))
			}
			same("storm", reqs)

			// Shed mid-burst: the last shard refuses its lease on both servers.
			shed := shards - 1
			release := []func(){saturatePool(t, piped.pools[shed]), saturatePool(t, alone.pools[shed])}
			reqs = reqs[:0]
			for k := 1; k <= 24; k++ {
				reqs = append(reqs, fmt.Sprintf("%s %d", [...]string{"GET", "SET", "DEL"}[k%3], k))
			}
			same("shed", reqs)
			for _, r := range release {
				r()
			}
			if piped.srv.Len() != alone.srv.Len() {
				t.Fatalf("Len: %d pipelined, %d one at a time", piped.srv.Len(), alone.srv.Len())
			}
			if got, want := piped.sh.Snapshot(), alone.sh.Snapshot(); !sets.KeysEqual(got, want) {
				t.Fatalf("keys: %v pipelined, %v one at a time", got, want)
			}
		})
	}
}
