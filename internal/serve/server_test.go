package serve_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hohtx/internal/bench"
	"hohtx/internal/list"
	"hohtx/internal/obs"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// testServer is a server on a loopback port and what its tests reach for.
type testServer struct {
	srv   *serve.Server
	cfg   serve.ServerConfig // as served: Shards filled in
	sh    *serve.Sharded     // the shards as one aggregate
	pools []*serve.Pool      // per shard
	addr  string
	// drain shuts the server down and checks it leaked nothing. It runs
	// once: a test that inspects the drained state calls it, and the
	// cleanup startServer registers calls it for everyone else.
	drain func()
}

// startServer is the one way a test in this package gets a listening
// server: sh's shards, each behind its own pool built from pc, under cfg
// (whose Shards it fills in). Its drain makes every test that serves a leak
// test: Shutdown, which no test may fail or outlast, ends with the verdict
// (Sharded.Books) — every pool idle, no request span armed and no
// transaction context busy on any worker id of any shard, and each shard's
// drained arena holding exactly its sentinels, its keys' nodes and nothing
// deferred.
func startServer(t testing.TB, sh *serve.Sharded, pc serve.PoolConfig, cfg serve.ServerConfig) *testServer {
	t.Helper()
	n := sh.ShardCount()
	ts := &testServer{sh: sh, pools: make([]*serve.Pool, n)}
	cfg.Shards = make([]serve.Backend, n)
	for i := range cfg.Shards {
		ts.pools[i] = serve.NewPool(sh.Shard(i), pc)
		cfg.Shards[i] = serve.Backend{Set: sh.Shard(i), Pool: ts.pools[i]}
	}
	ts.cfg, ts.srv = cfg, serve.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ts.addr = ln.Addr().String()
	serveErr := make(chan error, 1)
	go func() { serveErr <- ts.srv.Serve(ln) }()
	var once sync.Once
	ts.drain = func() {
		once.Do(func() {
			t.Helper()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := ts.srv.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
			if err := <-serveErr; err != nil {
				t.Errorf("Serve: %v", err)
			}
		})
	}
	t.Cleanup(ts.drain)
	return ts
}

// client is a test-side pipelined protocol client.
type client struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dialClient(t *testing.T, addr string) *client {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return &client{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
}

// roundTrip pipelines every request in one write and reads the replies.
func (cl *client) roundTrip(t *testing.T, reqs ...string) []string {
	t.Helper()
	for _, r := range reqs {
		cl.bw.WriteString(r)
		cl.bw.WriteByte('\n')
	}
	if err := cl.bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	out := make([]string, len(reqs))
	for i := range reqs {
		line, err := cl.br.ReadString('\n')
		if err != nil {
			t.Fatalf("read reply %d/%d: %v", i+1, len(reqs), err)
		}
		out[i] = strings.TrimRight(line, "\n")
	}
	return out
}

// TestServerEndToEnd is the loopback smoke test CI runs under -race: a
// pipelined client inserts, queries, and then storms DEL; afterwards the
// precise-reclamation claim must hold over the wire — LiveNodes is back
// to the empty-set baseline before the last reply is read.
func TestServerEndToEnd(t *testing.T) {
	ts := startServer(t, newSharded(t, 1, 4), serve.PoolConfig{Slots: 4}, serve.ServerConfig{})
	srv, set, addr := ts.srv, ts.sh.Shard(0), ts.addr
	mem := set.(sets.MemoryReporter)
	baseline := mem.LiveNodes()

	cl := dialClient(t, addr)
	const n = 100
	var sets, gets, dels []string
	for k := 1; k <= n; k++ {
		sets = append(sets, fmt.Sprintf("SET %d", k))
		gets = append(gets, fmt.Sprintf("GET %d", k))
		dels = append(dels, fmt.Sprintf("DEL %d", k))
	}
	for i, r := range cl.roundTrip(t, sets...) {
		if r != "1" {
			t.Fatalf("SET %d -> %q, want 1", i+1, r)
		}
	}
	if r := cl.roundTrip(t, "SET 1")[0]; r != "0" {
		t.Fatalf("duplicate SET -> %q, want 0", r)
	}
	for i, r := range cl.roundTrip(t, gets...) {
		if r != "1" {
			t.Fatalf("GET %d -> %q, want 1", i+1, r)
		}
	}
	if r := cl.roundTrip(t, "LEN")[0]; r != fmt.Sprint(n) {
		t.Fatalf("LEN -> %q, want %d", r, n)
	}
	if live := mem.LiveNodes(); live != baseline+n {
		t.Fatalf("live nodes with %d keys = %d, want %d", n, live, baseline+n)
	}

	// DEL storm: every reply must be 1, and node memory must return to
	// the baseline immediately — no grace period, no retire list.
	for i, r := range cl.roundTrip(t, dels...) {
		if r != "1" {
			t.Fatalf("DEL %d -> %q, want 1", i+1, r)
		}
	}
	if r := cl.roundTrip(t, "LEN")[0]; r != "0" {
		t.Fatalf("LEN after DEL storm -> %q, want 0", r)
	}
	if live := mem.LiveNodes(); live != baseline {
		t.Fatalf("live nodes after DEL storm = %d, want baseline %d", live, baseline)
	}
	if def := mem.DeferredNodes(); def != 0 {
		t.Fatalf("deferred nodes after DEL storm = %d, want 0", def)
	}
	if srv.Len() != 0 {
		t.Fatalf("server Len = %d, want 0", srv.Len())
	}
}

// TestServerManyConnections drives more concurrent connections than
// worker slots — the contract the lease pool exists to provide — and
// checks the memory books balance when the storm is over.
func TestServerManyConnections(t *testing.T) {
	ts := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{})
	set, addr := ts.sh.Shard(0), ts.addr
	mem := set.(sets.MemoryReporter)
	baseline := mem.LiveNodes()

	const conns, opsEach = 8, 60
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
				key := cid*opsEach + i + 1 // disjoint per connection
				fmt.Fprintf(bw, "SET %d\nGET %d\nDEL %d\n", key, key, key)
				if err := bw.Flush(); err != nil {
					t.Errorf("conn %d flush: %v", cid, err)
					return
				}
				for _, want := range []string{"1\n", "1\n", "1\n"} {
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
	if live := mem.LiveNodes(); live != baseline {
		t.Fatalf("live nodes after storm = %d, want baseline %d", live, baseline)
	}
}

// TestServerProtocolErrors checks malformed requests get ERR replies and
// leave the connection usable.
func TestServerProtocolErrors(t *testing.T) {
	addr := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{}).addr
	cl := dialClient(t, addr)
	for _, tc := range []struct{ req, wantPrefix string }{
		{"BOGUS 1", "ERR unknown command"},
		{"", "ERR empty command"},
		{"SET", "ERR missing key"},
		{"SET zero", "ERR bad key"},
		{"SET 0", "ERR key 0 out of range"},
		{"GET 18446744073709551615", "ERR key 18446744073709551615 out of range"},
	} {
		got := cl.roundTrip(t, tc.req)[0]
		if !strings.HasPrefix(got, tc.wantPrefix) {
			t.Errorf("%q -> %q, want prefix %q", tc.req, got, tc.wantPrefix)
		}
	}
	// The connection survived all of that.
	if r := cl.roundTrip(t, "SET 7", "GET 7")[1]; r != "1" {
		t.Fatalf("post-error GET -> %q, want 1", r)
	}
}

// TestServerInfo checks the INFO line carries the variant and live
// memory the load generator samples for its flatness report.
func TestServerInfo(t *testing.T) {
	addr := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{}).addr
	cl := dialClient(t, addr)
	cl.roundTrip(t, "SET 1", "SET 2")
	info := cl.roundTrip(t, "INFO")[0]
	for _, want := range []string{"variant=RR-V", "slots=2", "keys=2", "live=", "deferred=0", "conns=1"} {
		if !strings.Contains(info, want) {
			t.Errorf("INFO %q missing %q", info, want)
		}
	}
}

// TestServerDrain checks Shutdown completes while a connection sits idle
// (the drain deadline unblocks its read) and that Serve returns nil.
func TestServerDrain(t *testing.T) {
	ts := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{})

	c, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	br, bw := bufio.NewReader(c), bufio.NewWriter(c)
	fmt.Fprintf(bw, "SET 5\n")
	bw.Flush()
	if line, _ := br.ReadString('\n'); line != "1\n" {
		t.Fatalf("SET -> %q", line)
	}
	// The connection now idles in a blocked read; drain must not hang
	// (it fails the test if Shutdown or Serve returns an error).
	ts.drain()
	if _, err := ts.pools[0].Acquire(context.Background()); err != serve.ErrClosed {
		t.Fatalf("pool after Shutdown: %v, want serve.ErrClosed", err)
	}
}

// TestServerDeferredSchemesLoopback is the extended-matrix loopback smoke
// CI runs under -race: a server built on each of the post-2017 deferred
// schemes (TMHE, TMVBR — DESIGN.md §14) survives a concurrent SET/GET/DEL
// storm, and after shutdown two Finish rounds drain every deferred node so
// the arena books return exactly to the empty-set baseline — the same
// contract the precise schemes meet without the drain.
func TestServerDeferredSchemesLoopback(t *testing.T) {
	for _, tc := range []struct {
		family  bench.Family
		variant string
	}{
		{bench.FamilySingly, "TMHE"},
		{bench.FamilySingly, "TMVBR"},
		{bench.FamilySkipList, "TMHE"},
		{bench.FamilySkipList, "TMVBR"},
	} {
		t.Run(string(tc.family)+"/"+tc.variant, func(t *testing.T) {
			const slots = 2
			set, err := bench.Build(tc.family, bench.VariantSpec{Name: tc.variant}, slots)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			mem := set.(sets.MemoryReporter)
			baseline := mem.LiveNodes()

			ts := startServer(t, serve.NewSharded([]sets.Set{set}), serve.PoolConfig{Slots: slots}, serve.ServerConfig{})

			const conns, opsEach = 4, 40
			var wg sync.WaitGroup
			for cid := 0; cid < conns; cid++ {
				wg.Add(1)
				go func(cid int) {
					defer wg.Done()
					c, err := net.Dial("tcp", ts.addr)
					if err != nil {
						t.Errorf("dial: %v", err)
						return
					}
					defer c.Close()
					br, bw := bufio.NewReader(c), bufio.NewWriter(c)
					for i := 0; i < opsEach; i++ {
						key := cid*opsEach + i + 1 // disjoint per connection
						fmt.Fprintf(bw, "SET %d\nGET %d\nDEL %d\n", key, key, key)
						if err := bw.Flush(); err != nil {
							t.Errorf("conn %d flush: %v", cid, err)
							return
						}
						for _, want := range []string{"1\n", "1\n", "1\n"} {
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

			// Shutdown's two Finish sweeps free retirees the first left
			// pinned by era reservations that later slots only cleared in
			// their own Finish.
			ts.drain()
			if live := mem.LiveNodes(); live != baseline {
				t.Fatalf("live nodes after drain = %d, want baseline %d", live, baseline)
			}
			if def := mem.DeferredNodes(); def != 0 {
				t.Fatalf("deferred nodes after drain = %d, want 0", def)
			}
		})
	}
}

// TestServerBooksExternalTree serves the external tree, whose every key is
// a leaf and the router above it, and leaves keys in it at the drain: the
// verdict must take the tree's two nodes per key from the tree itself, not
// assume one.
func TestServerBooksExternalTree(t *testing.T) {
	set, err := bench.Build(bench.FamilyExternalTree, bench.VariantSpec{Name: "RR-V"}, 2)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ts := startServer(t, serve.NewSharded([]sets.Set{set}), serve.PoolConfig{Slots: 2}, serve.ServerConfig{})
	cl := dialClient(t, ts.addr)
	for i, r := range cl.roundTrip(t, "SET 5", "SET 9", "SET 2", "DEL 9", "SET 7") {
		if r != "1" {
			t.Fatalf("request %d -> %q, want 1", i+1, r)
		}
	}
	// Three keys stay in the tree; the drain's verdict balances the books.
}

// TestShutdownNamesWhatIsNotAtRest: the verdict Shutdown ends with has
// teeth. A worker id a test holds past the drain, a request span left
// armed, and a transaction context left busy each make Shutdown fail,
// naming the shard and the worker id; once the test lets go, Shutdown
// succeeds.
func TestShutdownNamesWhatIsNotAtRest(t *testing.T) {
	const slots = 2
	for _, tc := range []struct {
		name string
		want string
		// hold puts shard 1's worker 1 in the state under test and returns
		// what lets it go.
		hold func(t *testing.T, ts *testServer) (release func())
	}{
		{"leased", "shard 1: worker 1 still leased", func(t *testing.T, ts *testServer) func() {
			h := ts.pools[1].Handle()
			first, _ := h.Acquire(context.Background())
			second, _ := h.Acquire(context.Background())
			h.Release(first)
			if second != 1 {
				t.Fatalf("leased worker %d, want 1", second)
			}
			return func() { h.Release(second) }
		}},
		{"span", "shard 1: worker 1: a request span is still armed", func(t *testing.T, ts *testServer) func() {
			dom := ts.sh.Shard(1).(sets.ObsReporter).ObsDomain()
			sp := new(obs.Span)
			sp.Reset("TEST", obs.Now())
			dom.SetSpan(1, sp)
			return func() { dom.SetSpan(1, nil) }
		}},
		{"busy", "shard 1: worker 1: transaction context busy", func(t *testing.T, ts *testServer) func() {
			rt := ts.sh.Shard(1).(*list.List).RT
			started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				rt.Chain(1, func(*stm.Tx) bool {
					close(started)
					<-release
					return false
				})
			}()
			<-started
			return func() { close(release); <-done }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh, err := bench.BuildSharded(bench.FamilySingly, bench.VariantSpec{Name: "RR-V", Observe: true}, slots, 2)
			if err != nil {
				t.Fatal(err)
			}
			ts := startServer(t, sh, serve.PoolConfig{Slots: slots}, serve.ServerConfig{})
			release := tc.hold(t, ts)
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			err = ts.srv.Shutdown(ctx)
			if !errors.Is(err, serve.ErrUnbalanced) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Shutdown = %v, want ErrUnbalanced naming %q", err, tc.want)
			}
			release()
			ts.drain() // Shutdown again, now with everything at rest
		})
	}
}
