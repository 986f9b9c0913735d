package serve

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"hohtx/internal/core"
	"hohtx/internal/list"
	"hohtx/internal/obs"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/skiplist"
	"hohtx/internal/tree"
)

// The allocation-budget gate (DESIGN.md §15): steady-state request
// serving must cost ZERO heap allocations per operation, so the bench
// numbers measure the structures and not the Go garbage collector. The
// pins drive the real serving code (scanner → parse → lease → structure
// → reply render) in-process: testing.AllocsPerRun counts process-wide
// mallocs, so a socket with a client goroutine on the other end would
// charge the server for the client's allocations. CI runs these as the
// alloc-budget leg; a regression here fails the build, not a dashboard.

// skipUnderRace skips an allocation pin when the race detector is compiled
// in: its instrumentation allocates on paths that otherwise do not, and in
// race mode sync.Pool drops a share of Puts at random (so the stm's pooled
// Tx is reallocated), which is the detector's doing and not the server's.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

// loopReader replays a request script forever.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// newAllocConn wires a conn over a replaying script, exactly as handle()
// would build it for a socket.
func newAllocConn(t testing.TB, srv *Server, script string) *conn {
	t.Helper()
	c := srv.newConn(&loopReader{data: []byte(script)}, io.Discard)
	// Registered after the pool's Close, so it runs first (LIFO): Close
	// blocks until every lease is back.
	t.Cleanup(c.leases.releaseAll)
	return c
}

// allocConfigs are the two ways a server runs: bare, and with an obs
// domain — request spans, slowlog, hot-key sketches and serve histograms
// armed, which is how cmd/hohserver and the benchmark always run it. Every
// pin below holds its budget under both.
var allocConfigs = []struct {
	name   string
	traced bool
}{{"obs=nil", false}, {"obs=set", true}}

func newAllocServer(t testing.TB, slots int, traced bool) *Server {
	return newAllocShards(t, slots, 1, traced)
}

func newAllocShards(t testing.TB, slots, shards int, traced bool) *Server {
	t.Helper()
	backends := make([]Backend, shards)
	for i := range backends {
		set := list.New(list.Config{
			Mode: reclaim.ModeRR, RRKind: core.KindV,
			Threads: slots, Window: core.Window{W: 8},
		})
		backends[i] = Backend{Set: set, Pool: NewPool(set, PoolConfig{Slots: slots})}
		t.Cleanup(backends[i].Pool.Close)
	}
	cfg := ServerConfig{Shards: backends}
	if traced {
		cfg.Obs = obs.NewDomain(obs.DomainConfig{Name: "server", Threads: slots})
	}
	return NewServer(cfg)
}

// pinZero runs linesPerIter scripted requests per iteration, each a burst of
// its own, and fails on the first heap allocation. The script must be
// steady-state: every SET matched by a DEL, so the arena neither grows nor
// shrinks across iterations.
func pinZero(t *testing.T, name string, srv *Server, script string, linesPerIter int) {
	t.Helper()
	pinBursts(t, name, srv, script, linesPerIter, 1)
}

// pinBursts is pinZero for bursts of burst requests: what is pending runs
// after every burst-th line, as where a pipelined burst ends.
func pinBursts(t *testing.T, name string, srv *Server, script string, linesPerIter, burst int) {
	t.Helper()
	skipUnderRace(t)
	c := newAllocConn(t, srv, script)
	serve := func() {
		for i := 0; i < linesPerIter; i++ {
			line, err := c.sc.Line()
			if err != nil {
				t.Fatalf("%s: scan: %v", name, err)
			}
			if !c.serveLine(line) || (i+1)%burst == 0 && !c.flushPend() {
				t.Fatalf("%s: connection dropped", name)
			}
		}
	}
	serve() // prime: leases, scratch high-water marks, arena free lists
	if got := testing.AllocsPerRun(2000, serve); got > 0 {
		t.Errorf("%s: %.4f allocs/op, want 0", name, got)
	}
}

// TestServeAllocsPointOps pins the GET, SET and DEL serve paths at zero
// heap allocations per request: alone, and pipelined. The pins run what is
// pending but never end a burst's leases, so on a traced server the
// connection's forensic scratch (16 entries) fills and publishes early
// every sixteenth request; the run of 50 lone requests overflows it three
// times per iteration. A pipelined burst of 8 is one pass per shard under
// one span, on one shard and on two.
func TestServeAllocsPointOps(t *testing.T) {
	burst := "SET 9\nGET 9\nDEL 9\nGET 10\nSET 12\nGET 11\nDEL 12\nGET 12\n"
	for _, cfg := range allocConfigs {
		srv := newAllocServer(t, 4, cfg.traced) // a slot per pinned conn: each keeps its lease
		pinZero(t, cfg.name+"/GET", srv, "GET 5\n", 1)
		pinZero(t, cfg.name+"/SET+DEL", srv, "SET 6\nDEL 6\n", 2)
		pinZero(t, cfg.name+"/lone-50", srv, strings.Repeat("SET 9\nGET 9\nDEL 9\nGET 10\nGET 11\n", 10), 50)
		pinBursts(t, cfg.name+"/burst-of-8", srv, burst, 8, 8)
		pinBursts(t, cfg.name+"/burst-of-8/shards=2", newAllocShards(t, 1, 2, cfg.traced), burst, 8, 8)
	}
}

// TestServeAllocsMulti pins the single-shard MULTI frame — parse, batch
// transaction, per-op replies — at zero heap allocations per frame.
func TestServeAllocsMulti(t *testing.T) {
	for _, cfg := range allocConfigs {
		srv := newAllocServer(t, 2, cfg.traced)
		pinZero(t, cfg.name+"/MULTI", srv, "MULTI 4\nSET 7\nGET 7\nDEL 7\nGET 8\n", 1)
	}
}

// TestServeAllocsAscend pins the scan path at zero: an ASCEND 64 over 300
// resident keys, on one shard and merged over two (where a shard that owns
// more than its pull's share is pulled a second time). The per-shard cursors
// keep their buffers (a head index, not a reslice) and their pull sinks
// across requests, and the structure's cursor collects into the worker
// slot's own key buffer. The parent columns are for the record: what the
// request cost when list.Ascend grew a batch buffer per call (4 per pull),
// and before that when every request also dropped the cursor buffers and
// every pull built a closure (13 per pull).
func TestServeAllocsAscend(t *testing.T) {
	const parentPerPull, grandparentPerPull = 4, 13
	for _, cfg := range allocConfigs {
		for _, shards := range []int{1, 2} {
			srv := newAllocShards(t, 2, shards, cfg.traced)
			c := newAllocConn(t, srv, "ASCEND 1 64\n")
			for k := 1; k <= 300; k++ {
				c.serveLine([]byte(fmt.Sprintf("SET %d", k)))
			}
			name := fmt.Sprintf("%s/ASCEND-64/shards=%d (parents: %d, %d)", cfg.name, shards,
				parentPerPull*shards, grandparentPerPull*shards)
			pinZero(t, name, srv, "ASCEND 1 64\n", 1)
		}
	}
}

// TestServeAllocsMalformed pins the malformed-input replies: sentinel
// diagnoses rendered into connection scratch, not fmt.Errorf chains, so
// a garbage flood cannot allocate its way past the budget. (The quoted
// bad-key token passes through a stack-allocated string conversion; the
// pin proves it stays on the stack.)
func TestServeAllocsMalformed(t *testing.T) {
	for _, cfg := range allocConfigs {
		srv := newAllocServer(t, 2, cfg.traced)
		pinZero(t, cfg.name+"/bad-key", srv, "GET zero\n", 1)
		pinZero(t, cfg.name+"/missing-key", srv, "SET\n", 1)
		pinZero(t, cfg.name+"/out-of-range", srv, "GET 99999999999\n", 1)
		pinZero(t, cfg.name+"/unknown-verb", srv, "FROB 1\n", 1)
	}
}

// TestStructureAllocs pins the layer below the wire. First the RR-V list
// the server runs: single ops and batch Apply allocate nothing once warm
// (bound reclamation hooks + per-thread batch scratch; see
// stm.OnCommitCall). Then what the reclamation seam's pre-bound hooks buy
// every structure: a windowed operation (W=4 over 200 keys, so it cuts and
// resumes several times) allocates nothing under the precise link and
// nothing under the deferred one — hold, drop, alloc stamp, retire and
// free-on-abort all travel through OnCommitCall's inline arguments. The
// parent column is the same measurement before the seam, when the tree and
// the skiplist scheduled a closure per hold, drop, retire and alloc; a row
// that rises above zero has reintroduced one.
func TestStructureAllocs(t *testing.T) {
	skipUnderRace(t)
	set := list.New(list.Config{
		Mode: reclaim.ModeRR, RRKind: core.KindV,
		Threads: 2, Window: core.Window{W: 8},
	})
	ops := make([]sets.Op, 0, 64)
	for i := 0; i < 32; i++ {
		ops = append(ops, sets.Op{Kind: sets.OpInsert, Key: uint64(100 + i)})
	}
	for i := 0; i < 32; i++ {
		ops = append(ops, sets.Op{Kind: sets.OpRemove, Key: uint64(100 + i)})
	}
	set.Apply(0, ops) // prime arena + scratch
	cases := []struct {
		name string
		f    func()
	}{
		{"lookup", func() { set.Lookup(0, 50) }},
		{"insert+remove", func() { set.Insert(0, 51); set.Remove(0, 51) }},
		{"apply-64", func() { set.Apply(0, ops) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(500, c.f); got != 0 {
			t.Errorf("%s: %.4f allocs/op, want 0", c.name, got)
		}
	}

	win := core.Window{W: 4}
	singly := func(m reclaim.Mode) sets.Set {
		return list.New(list.Config{Mode: m, RRKind: core.KindV, Threads: 2, Window: win})
	}
	doubly := func(m reclaim.Mode) sets.Set {
		return list.NewDoubly(list.Config{Mode: m, RRKind: core.KindV, Threads: 2, Window: win})
	}
	etree := func(m reclaim.Mode) sets.Set {
		return tree.NewExternal(tree.Config{Mode: m, RRKind: core.KindV, Threads: 2, Window: win})
	}
	skip := func(m reclaim.Mode) sets.Set {
		return skiplist.New(skiplist.Config{Mode: m, RRKind: core.KindV, Threads: 2, Window: win})
	}
	for _, row := range []struct {
		name  string
		build func(reclaim.Mode) sets.Set
		mode  reclaim.Mode
		// allocs per Lookup and per Insert+Remove: at the parent commit
		// (for the record), and pinned now.
		parentLookup, parentUpdate float64
		lookup, update             float64
	}{
		{"singly", singly, reclaim.ModeRR, 0, 0, 0, 0},
		{"singly", singly, reclaim.ModeTMHP, 0, 0, 0, 0},
		{"singly", singly, reclaim.ModeTMVBR, 0, 0, 0, 0},
		{"doubly", doubly, reclaim.ModeRR, 0, 1, 0, 0},
		{"doubly", doubly, reclaim.ModeTMHP, 0, 1, 0, 0},
		{"doubly", doubly, reclaim.ModeTMVBR, 0, 1, 0, 0},
		{"etree", etree, reclaim.ModeRR, 0, 4, 0, 0},
		{"etree", etree, reclaim.ModeTMHP, 6, 13, 0, 0},
		{"etree", etree, reclaim.ModeTMVBR, 6, 13, 0, 0},
		{"skip", skip, reclaim.ModeRR, 4, 7, 0, 0},
		{"skip", skip, reclaim.ModeTMHE, 4, 9, 0, 0},
		{"skip", skip, reclaim.ModeTMVBR, 5, 9, 0, 0},
	} {
		set := row.build(row.mode)
		set.Register(0)
		for i := uint64(0); i < 200; i++ {
			set.Insert(0, 2+2*(i*89%200)) // even keys 2..400, scattered so the tree is not a chain
		}
		for i := 0; i < 70; i++ { // past a scan threshold: retire lists and magazines are warm
			set.Insert(0, 151)
			set.Remove(0, 151)
		}
		if got := testing.AllocsPerRun(300, func() { set.Lookup(0, 300) }); got > row.lookup {
			t.Errorf("%s/%s lookup: %.2f allocs/op, want <= %.0f (before the seam: %.0f)",
				row.name, set.Name(), got, row.lookup, row.parentLookup)
		}
		if got := testing.AllocsPerRun(300, func() { set.Insert(0, 151); set.Remove(0, 151) }); got > row.update {
			t.Errorf("%s/%s insert+remove: %.2f allocs/op, want <= %.0f (before the seam: %.0f)",
				row.name, set.Name(), got, row.update, row.parentUpdate)
		}
	}

	// The reservation cursor, bounded (what a merge's pull is) and stopped by
	// its consumer: the keys a window collects go into the thread's own
	// buffer, so a scan of several windows allocates nothing once that has
	// grown (4 per call on the list and 5 on the skiplist when each call
	// grew its own).
	for _, set := range []sets.Set{singly(reclaim.ModeRR), skip(reclaim.ModeRR)} {
		set.Register(0)
		for k := uint64(1); k <= 200; k++ {
			set.Insert(0, k)
		}
		asc, n := set.(sets.Ascender), 0
		all := func(uint64) bool { return true }
		stopAt64 := func(uint64) bool { n++; return n < 64 }
		_ = asc.Ascend(0, 1, all) // prime the buffer
		if got := testing.AllocsPerRun(300, func() { _ = asc.AscendN(0, 1, 64, all) }); got != 0 {
			t.Errorf("%T AscendN-64: %.2f allocs/op, want 0", set, got)
		}
		if got := testing.AllocsPerRun(300, func() { n = 0; _ = asc.Ascend(0, 1, stopAt64) }); got != 0 {
			t.Errorf("%T Ascend stopped at 64: %.2f allocs/op, want 0", set, got)
		}
	}

	// A pipelined burst of 8 as the server runs it: split by shard, one pass
	// per shard — two skiplists — and one pass on an external tree. Like
	// Apply's, a pass's result and order buffers are per-thread scratch, and
	// an insert's height rides in its hold's word.
	burst := []sets.Op{
		{Kind: sets.OpInsert, Key: 9}, {Kind: sets.OpLookup, Key: 9}, {Kind: sets.OpRemove, Key: 9}, {Kind: sets.OpLookup, Key: 10},
		{Kind: sets.OpInsert, Key: 12}, {Kind: sets.OpLookup, Key: 11}, {Kind: sets.OpRemove, Key: 12}, {Kind: sets.OpLookup, Key: 12},
	}
	view, et := NewSharded([]sets.Set{skip(reclaim.ModeRR), skip(reclaim.ModeRR)}), etree(reclaim.ModeRR)
	view.Register(0)
	et.Register(0)
	for k := uint64(20); k < 220; k++ {
		view.Insert(0, k)
		et.Insert(0, k)
	}
	var plan shardPlan
	out := make([]sets.Result, len(burst))
	passes := map[string]func(){
		"skip/shards=2": func() {
			splitByShard(&plan, burst, 2)
			for sh, sub := range plan.ops {
				view.passShard(sh, 0, sub, out, plan.idx[sh])
			}
		},
		"etree": func() { et.(sets.Passer).Pass(0, burst) },
	}
	for name, f := range passes {
		f() // prime
		if got := testing.AllocsPerRun(300, f); got != 0 {
			t.Errorf("pass %s burst of 8: %.4f allocs/op, want 0", name, got)
		}
	}

	// Batch Apply on the other structures: like the list's, their result
	// (and the skiplist's height) buffers are per-thread scratch.
	for _, set := range []sets.Set{
		tree.NewInternal(tree.Config{RRKind: core.KindV, Threads: 2, Window: win}),
		etree(reclaim.ModeRR),
		skip(reclaim.ModeRR),
	} {
		set.Apply(0, ops) // prime arena + scratch
		if got := testing.AllocsPerRun(300, func() { set.Apply(0, ops) }); got != 0 {
			t.Errorf("%T apply-64: %.4f allocs/op, want 0", set, got)
		}
	}
}

// TestStructureAllocsChain pins a long chain of windows at zero allocations:
// W=1 on RR-V, so a lookup is a transaction for every other node it visits
// — on one context, acquired once (stm.Runtime.Chain), with the hold handed
// over through pre-bound hooks and thread-private cells. Each row states how
// long a chain its lookup must at least be; the skiplist's is short because a
// search of any skiplist moves right only ~log n times.
func TestStructureAllocsChain(t *testing.T) {
	skipUnderRace(t)
	win := core.Window{W: 1, NoScatter: true}
	for _, row := range []struct {
		name    string
		set     sets.Set
		keys    int
		windows uint64
	}{
		{"singly", list.New(list.Config{RRKind: core.KindV, Threads: 2, Window: win}), 160, 64},
		// Ascending inserts: the external tree degenerates into a chain.
		{"etree", tree.NewExternal(tree.Config{RRKind: core.KindV, Threads: 2, Window: win}), 80, 64},
		{"skip", skiplist.New(skiplist.Config{RRKind: core.KindV, Threads: 2, Window: win}), 4096, 8},
	} {
		set := row.set
		set.Register(0)
		for k := 1; k <= row.keys; k++ {
			set.Insert(0, uint64(k))
		}
		last := uint64(row.keys)
		set.Lookup(0, last)
		tm := set.(sets.TMStatsReporter)
		c0 := tm.TMStats().Commits
		allocs := testing.AllocsPerRun(200, func() { set.Lookup(0, last) })
		if per := (tm.TMStats().Commits - c0) / 201; per < row.windows {
			t.Errorf("%s: a lookup is %d windows, want a chain of at least %d", row.name, per, row.windows)
		}
		if allocs != 0 {
			t.Errorf("%s: %.4f allocs per chain, want 0", row.name, allocs)
		}
	}
}
