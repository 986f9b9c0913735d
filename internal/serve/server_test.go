package serve_test

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hohtx/internal/bench"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
)

// startServer builds an RR-V singly list, a pool, and a listening server
// on a loopback port; the cleanup shuts everything down.
func startServer(t *testing.T, slots int) (*serve.Server, sets.Set, string) {
	t.Helper()
	set := newSet(t, slots)
	pool := serve.NewPool(set, serve.PoolConfig{Slots: slots})
	srv := serve.NewServer(serve.ServerConfig{Shards: []serve.Backend{{Set: set, Pool: pool}}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, set, ln.Addr().String()
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
	srv, set, addr := startServer(t, 4)
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
	_, set, addr := startServer(t, 2)
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
	_, _, addr := startServer(t, 2)
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
	_, _, addr := startServer(t, 2)
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
	set := newSet(t, 2)
	pool := serve.NewPool(set, serve.PoolConfig{Slots: 2})
	srv := serve.NewServer(serve.ServerConfig{Shards: []serve.Backend{{Set: set, Pool: pool}}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c, err := net.Dial("tcp", ln.Addr().String())
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
	// The connection now idles in a blocked read; drain must not hang.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after drain, want nil", err)
	}
	if _, err := pool.Acquire(context.Background()); err != serve.ErrClosed {
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

			pool := serve.NewPool(set, serve.PoolConfig{Slots: slots})
			srv := serve.NewServer(serve.ServerConfig{Shards: []serve.Backend{{Set: set, Pool: pool}}})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			serveErr := make(chan error, 1)
			go func() { serveErr <- srv.Serve(ln) }()

			const conns, opsEach = 4, 40
			var wg sync.WaitGroup
			for cid := 0; cid < conns; cid++ {
				wg.Add(1)
				go func(cid int) {
					defer wg.Done()
					c, err := net.Dial("tcp", ln.Addr().String())
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

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if err := <-serveErr; err != nil {
				t.Fatalf("Serve: %v", err)
			}
			// Shutdown closed the pool (one Finish sweep); one more round
			// frees retirees the first sweep left pinned by era
			// reservations that later slots only cleared in their own
			// Finish.
			pool.FinishAll()
			if live := mem.LiveNodes(); live != baseline {
				t.Fatalf("live nodes after drain = %d, want baseline %d", live, baseline)
			}
			if def := mem.DeferredNodes(); def != 0 {
				t.Fatalf("deferred nodes after drain = %d, want 0", def)
			}
		})
	}
}
