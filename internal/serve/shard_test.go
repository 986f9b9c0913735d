package serve_test

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hohtx/internal/serve"
	"hohtx/internal/sets"
)

// newSharded builds n RR-V singly-list shards behind the facade.
func newSharded(t *testing.T, n, threads int) *serve.Sharded {
	t.Helper()
	shards := make([]sets.Set, n)
	for i := range shards {
		shards[i] = newSet(t, threads)
	}
	return serve.NewSharded(shards)
}

// TestShardOfConsistent pins the routing contract: deterministic per
// (key, n), in range, and the degenerate shard counts collapse to 0.
func TestShardOfConsistent(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		for key := uint64(1); key <= 1000; key++ {
			s := serve.ShardOf(key, n)
			if s < 0 || s >= n && n > 0 {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", key, n, s)
			}
			if s != serve.ShardOf(key, n) {
				t.Fatalf("ShardOf(%d, %d) not deterministic", key, n)
			}
		}
	}
	if serve.ShardOf(42, 0) != 0 || serve.ShardOf(42, 1) != 0 {
		t.Fatal("ShardOf must collapse to shard 0 for n <= 1")
	}
	// Shards as the router's own finalizer placed them before it called
	// core.Mix64: a key keeps its shard across the change.
	for k, want := range map[uint64]int{1: 2, 2: 4, 3: 2, 4: 6, 5: 3, 8: 4, 1000: 0, 1 << 40: 5, ^uint64(0) - 3: 3} {
		if got := serve.ShardOf(k, 7); got != want {
			t.Errorf("ShardOf(%d, 7) = %d, want %d", k, got, want)
		}
	}
}

// TestShardOfDistribution checks router distribution sanity: a dense
// uniform key range must land on every shard in near-equal proportion —
// no shard starved, none overloaded. The splitmix finalizer should keep
// each shard within ±25% of the ideal share.
func TestShardOfDistribution(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		counts := make([]int, n)
		const keys = 1 << 14
		for key := uint64(1); key <= keys; key++ {
			counts[serve.ShardOf(key, n)]++
		}
		ideal := keys / n
		for i, c := range counts {
			if c < ideal*3/4 || c > ideal*5/4 {
				t.Errorf("n=%d: shard %d got %d of %d keys (ideal %d)", n, i, c, keys, ideal)
			}
		}
	}
}

// TestShardedFacade drives the Sharded facade through a lease pool under
// concurrent churn and checks the aggregate views: the merged snapshot is
// sorted and complete, the summed memory books balance exactly (each
// shard is a precise-reclamation structure), and transaction statistics
// aggregate across the shards' independent runtimes.
func TestShardedFacade(t *testing.T) {
	const shards, threads, workers, opsEach = 3, 4, 8, 300
	sh := newSharded(t, shards, threads)
	baseline := sh.LiveNodes()

	pool := serve.NewPool(sh, serve.PoolConfig{Slots: threads})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := pool.Handle()
			for i := 0; i < opsEach; i++ {
				key := uint64(w*opsEach+i)%511 + 1
				_ = h.Do(context.Background(), func(tid int) {
					if sh.Insert(tid, key) {
						if !sh.Lookup(tid, key) {
							t.Errorf("key %d vanished between insert and lookup", key)
						}
						sh.Remove(tid, key)
					}
				})
			}
		}(w)
	}
	wg.Wait()
	pool.Close()

	snap := sh.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1] >= snap[i] {
			t.Fatalf("merged snapshot not strictly sorted at %d: %d then %d", i, snap[i-1], snap[i])
		}
	}
	if live := sh.LiveNodes(); live != baseline+uint64(len(snap)) {
		t.Fatalf("live %d != baseline %d + %d resident keys", live, baseline, len(snap))
	}
	if def := sh.DeferredNodes(); def != 0 {
		t.Fatalf("precise shards reported %d deferred nodes", def)
	}
	if sh.TMStats().Commits == 0 {
		t.Fatal("aggregate TMStats().Commits = 0 after a churn run")
	}
	if got, want := sh.Name(), "RR-V×3"; got != want {
		t.Fatalf("Name = %q, want %q", got, want)
	}

	// Per-shard books must balance individually, not just in sum: every
	// key the merged snapshot holds lives on exactly the shard the router
	// assigns it.
	for i := 0; i < sh.ShardCount(); i++ {
		onShard := 0
		for _, k := range snap {
			if sh.ShardFor(k) == i {
				onShard++
			}
		}
		shardSnap := sh.Shard(i).Snapshot()
		if len(shardSnap) != onShard {
			t.Fatalf("shard %d holds %d keys, router assigns it %d", i, len(shardSnap), onShard)
		}
	}
}

// parseInfo splits an INFO reply into its key=value fields.
func parseInfo(t *testing.T, line string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, f := range strings.Fields(line) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			t.Fatalf("malformed INFO field %q in %q", f, line)
		}
		out[k] = v
	}
	return out
}

// TestShardedServerEndToEnd serves the unchanged protocol over 3 shards:
// point ops route by hash, LEN and INFO aggregate exactly, and after a
// DEL storm the summed live-node count is back at the baseline — precise
// reclamation per shard, observed through one front end.
func TestShardedServerEndToEnd(t *testing.T) {
	ts := startServer(t, newSharded(t, 3, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{})
	srv, sh, addr := ts.srv, ts.sh, ts.addr
	baseline := sh.LiveNodes()

	cl := dialClient(t, addr)
	const n = 120
	var setReqs, getReqs, delReqs []string
	for k := 1; k <= n; k++ {
		setReqs = append(setReqs, fmt.Sprintf("SET %d", k))
		getReqs = append(getReqs, fmt.Sprintf("GET %d", k))
		delReqs = append(delReqs, fmt.Sprintf("DEL %d", k))
	}
	for i, r := range cl.roundTrip(t, setReqs...) {
		if r != "1" {
			t.Fatalf("SET %d -> %q, want 1", i+1, r)
		}
	}
	for i, r := range cl.roundTrip(t, getReqs...) {
		if r != "1" {
			t.Fatalf("GET %d -> %q, want 1", i+1, r)
		}
	}
	if r := cl.roundTrip(t, "LEN")[0]; r != fmt.Sprint(n) {
		t.Fatalf("LEN -> %q, want %d", r, n)
	}

	info := parseInfo(t, cl.roundTrip(t, "INFO")[0])
	if info["shards"] != "3" {
		t.Fatalf("INFO shards = %q, want 3", info["shards"])
	}
	if info["keys"] != fmt.Sprint(n) {
		t.Fatalf("INFO keys = %q, want %d", info["keys"], n)
	}
	live, err := strconv.ParseUint(info["live"], 10, 64)
	if err != nil || live != sh.LiveNodes() {
		t.Fatalf("INFO live = %q, want the shard sum %d", info["live"], sh.LiveNodes())
	}
	if live != baseline+n {
		t.Fatalf("live %d != baseline %d + %d keys", live, baseline, n)
	}
	// The commit split reconciles across shards, and on RR-V it says what
	// ran: every SET's last window wrote, every GET committed read-only.
	var commits, ro, rw uint64
	for field, dst := range map[string]*uint64{"commits": &commits, "ro_commits": &ro, "rw_commits": &rw} {
		if *dst, err = strconv.ParseUint(info[field], 10, 64); err != nil {
			t.Fatalf("INFO %s = %q: %v", field, info[field], err)
		}
	}
	if tm := sh.TMStats(); commits != tm.Commits || rw != tm.WriteCommits || ro+rw != commits || rw < n || ro < n {
		t.Fatalf("INFO commits=%d ro_commits=%d rw_commits=%d after %d SETs and %d GETs (shard sum %v)",
			commits, ro, rw, n, n, tm)
	}

	// Every shard must hold some of a dense 1..120 range (router sanity
	// over the wire, not just in the hash unit test).
	for i := 0; i < sh.ShardCount(); i++ {
		if len(sh.Shard(i).Snapshot()) == 0 {
			t.Fatalf("shard %d starved: 0 of %d keys", i, n)
		}
	}

	for i, r := range cl.roundTrip(t, delReqs...) {
		if r != "1" {
			t.Fatalf("DEL %d -> %q, want 1", i+1, r)
		}
	}
	if r := cl.roundTrip(t, "LEN")[0]; r != "0" {
		t.Fatalf("LEN after DEL storm -> %q, want 0", r)
	}
	if live := sh.LiveNodes(); live != baseline {
		t.Fatalf("live after DEL storm = %d, want baseline %d", live, baseline)
	}
	if srv.Len() != 0 {
		t.Fatalf("server Len = %d, want 0", srv.Len())
	}
}

// TestShardedServerConcurrentChurn runs cross-shard SET/DEL churn from
// several connections while another samples LEN and INFO, then checks the
// aggregates are exact once the churn quiesces. Sampled LEN must always
// be a plausible prefix state (0 ≤ len ≤ keyspace) and INFO must stay
// well-formed with deferred=0 throughout.
func TestShardedServerConcurrentChurn(t *testing.T) {
	ts := startServer(t, newSharded(t, 4, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{})
	sh, addr := ts.sh, ts.addr
	baseline := sh.LiveNodes()

	const conns, opsEach, span = 6, 80, 64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		cl := dialClient(t, addr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			replies := cl.roundTrip(t, "LEN", "INFO")
			n, err := strconv.Atoi(replies[0])
			if err != nil || n < 0 || n > conns*span {
				t.Errorf("mid-churn LEN %q out of bounds [0, %d]", replies[0], conns*span)
				return
			}
			info := parseInfo(t, replies[1])
			if info["shards"] != "4" || info["deferred"] != "0" {
				t.Errorf("mid-churn INFO %v: want shards=4 deferred=0", info)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for cid := 0; cid < conns; cid++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			br, bw := bufio.NewReader(c), bufio.NewWriter(c)
			for i := 0; i < opsEach; i++ {
				key := cid*span + i%span + 1 // disjoint per connection
				fmt.Fprintf(bw, "SET %d\nDEL %d\n", key, key)
				if err := bw.Flush(); err != nil {
					t.Errorf("conn %d flush: %v", cid, err)
					return
				}
				for _, want := range []string{"1\n", "1\n"} {
					line, err := br.ReadString('\n')
					if err != nil || line != want {
						t.Errorf("conn %d key %d: reply %q err %v, want %q", cid, key, line, err, want)
						return
					}
				}
			}
		}(cid)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()

	cl := dialClient(t, addr)
	if r := cl.roundTrip(t, "LEN")[0]; r != "0" {
		t.Fatalf("LEN after churn -> %q, want 0", r)
	}
	if live := sh.LiveNodes(); live != baseline {
		t.Fatalf("live after churn = %d, want baseline %d", live, baseline)
	}
}

// TestShardedServerCrossShardNoDeadlock pins the lease-acquisition
// protocol: with one slot per shard and several connections pipelining
// bursts that straddle both shards, a server that held one shard's slot
// while queueing for the other's would deadlock (connection A holds
// shard 0 and waits on shard 1 while B holds 1 and waits on 0). The
// connection deadline turns a regression into a test failure instead of
// a hung suite.
func TestShardedServerCrossShardNoDeadlock(t *testing.T) {
	ts := startServer(t, newSharded(t, 2, 1), serve.PoolConfig{Slots: 1}, serve.ServerConfig{})
	sh, addr := ts.sh, ts.addr
	// One key per shard, found by routing.
	var keys [2]uint64
	for k := uint64(1); keys[0] == 0 || keys[1] == 0; k++ {
		if s := sh.ShardFor(k); keys[s] == 0 {
			keys[s] = k
		}
	}
	const conns, bursts = 4, 100
	var wg sync.WaitGroup
	errc := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errc <- err
				return
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(20 * time.Second))
			br := bufio.NewReader(conn)
			bw := bufio.NewWriter(conn)
			for b := 0; b < bursts; b++ {
				// Alternate which shard each connection touches first, so
				// the hold-and-wait cycle forms immediately under a faulty
				// protocol.
				a, z := keys[cid%2], keys[1-cid%2]
				fmt.Fprintf(bw, "GET %d\nGET %d\nGET %d\nGET %d\n", a, z, a, z)
				if err := bw.Flush(); err != nil {
					errc <- err
					return
				}
				for i := 0; i < 4; i++ {
					if _, err := br.ReadString('\n'); err != nil {
						errc <- fmt.Errorf("conn %d burst %d: %w", cid, b, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
