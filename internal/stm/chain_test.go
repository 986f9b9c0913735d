package stm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"hohtx/internal/pad"
)

// ownedAndPooled are the two kinds of context a transaction can run in: a
// pooled one (tid -1) and the one a tid owns. The model and read-path
// properties run over both.
var ownedAndPooled = []int{-1, 0}

// TestTxLayout pins what the Tx and statBlock comments promise. A Tx is four
// cache lines exactly, with everything Word.Load's fast path tests or writes
// in the first and the counts a window writes in the last; a counter block
// is a whole number of lines. Both come line-aligned from the allocator —
// the context and the block of every tid, and the pooled contexts — so no
// two of them share a line, and no counter line is written by two tids. The
// block the pooled contexts share sits between spacers in the Runtime.
func TestTxLayout(t *testing.T) {
	var tx Tx
	if got := unsafe.Sizeof(tx); got != 4*pad.CacheLine {
		t.Fatalf("Tx is %d bytes, want %d: adjust the counter widths", got, 4*pad.CacheLine)
	}
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"rv", unsafe.Offsetof(tx.rv) + unsafe.Sizeof(tx.rv)},
		{"wfilter", unsafe.Offsetof(tx.wfilter) + unsafe.Sizeof(tx.wfilter)},
		{"rs", unsafe.Offsetof(tx.rs) + unsafe.Sizeof(tx.rs)},
		{"rsHead", unsafe.Offsetof(tx.rsHead) + unsafe.Sizeof(tx.rsHead)},
		{"limit", unsafe.Offsetof(tx.limit) + unsafe.Sizeof(tx.limit)},
		{"wn", unsafe.Offsetof(tx.wn) + unsafe.Sizeof(tx.wn)},
	} {
		if f.end > pad.CacheLine {
			t.Fatalf("read-path field %s ends at byte %d, past the first cache line", f.name, f.end)
		}
	}
	if off := unsafe.Offsetof(tx.extensions); off != 3*pad.CacheLine {
		t.Fatalf("the per-window counts start at byte %d, want the fourth line (%d)", off, 3*pad.CacheLine)
	}
	if got := unsafe.Sizeof(statBlock{}); got%pad.CacheLine != 0 {
		t.Fatalf("statBlock is %d bytes, not a whole number of cache lines: pad it", got)
	}
	// One write-set entry shape and one hook shape: four words each.
	if got := unsafe.Sizeof(wentry{}); got != 32 {
		t.Fatalf("wentry is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(txHook{}); got != 32 {
		t.Fatalf("txHook is %d bytes, want 32", got)
	}

	rt := NewRuntime(Profile{})
	type span struct{ lo, hi uintptr }
	var spans []span
	add := func(what string, p unsafe.Pointer, size uintptr) {
		lo := uintptr(p)
		if lo%pad.CacheLine != 0 {
			t.Fatalf("%s sits at %#x, not line-aligned", what, lo)
		}
		spans = append(spans, span{lo, lo + size})
	}
	for _, tid := range []int{0, 1, 2, 5} { // 5: the table grows past a gap
		c := rt.context(tid)
		if c.stats == &rt.fallback {
			t.Fatalf("tid %d's context publishes into the fallback block", tid)
		}
		add(fmt.Sprintf("tid %d's context", tid), unsafe.Pointer(c), unsafe.Sizeof(*c))
		add(fmt.Sprintf("tid %d's counter block", tid), unsafe.Pointer(c.stats), unsafe.Sizeof(*c.stats))
	}
	for i := 0; i < 4; i++ {
		pooled := rt.acquire(-1) // from the pool's New; kept out of the pool
		add(fmt.Sprintf("pooled Tx %d", i), unsafe.Pointer(pooled), unsafe.Sizeof(*pooled))
	}
	// Aligned and a whole number of lines each: disjoint byte ranges are
	// disjoint line ranges.
	for i, a := range spans {
		for _, b := range spans[i+1:] {
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("contexts or blocks overlap: [%#x,%#x) and [%#x,%#x)", a.lo, a.hi, b.lo, b.hi)
			}
		}
	}

	before := unsafe.Offsetof(rt.fallback) - (unsafe.Offsetof(rt.txPool) + unsafe.Sizeof(rt.txPool))
	after := unsafe.Offsetof(rt.obs) - (unsafe.Offsetof(rt.fallback) + unsafe.Sizeof(rt.fallback))
	if before < pad.CacheLine || after < pad.CacheLine {
		t.Fatalf("the fallback block has %d and %d bytes of spacer around it, want a cache line each", before, after)
	}
}

// chainWindow is one scripted window of TestStatsExactAtQuiescence.
type chainWindow uint8

const (
	cwRead      chainWindow = iota // loads: a read-only commit
	cwWrite                        // a store: a write commit
	cwRestart                      // Restart on the first attempt, then a write commit
	cwSerial                       // overflows the capacity: one capacity abort, one serial (write) commit
	cwExtend                       // reads a cell a nested transaction just committed: one extension
	cwRestart2                     // Restart on the first two attempts: two aborts, then a serial read-only commit
	numChainWin = iota
)

// TestStatsExactAtQuiescence: several tids run chains of random length whose
// windows commit read-only, commit writes, abort and retry, fall back to
// serial mode and extend their snapshots, each on cells no other tid touches
// (so every abort and extension is one the script asked for). While they run
// a reader takes snapshots, which may lag but must never show more write
// commits than commits; once they are done the counters equal what ran, to
// the unit, and ResetStats zeroes every tid's block.
func TestStatsExactAtQuiescence(t *testing.T) {
	const (
		tids     = 4
		capacity = 8
	)
	chains := 300
	if testing.Short() {
		chains = 60
	}
	rt := NewRuntime(Profile{Capacity: capacity, MaxAttempts: 2})
	var want [tids]Stats

	var stop atomic.Bool
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for !stop.Load() {
			if s := rt.Stats(); s.WriteCommits > s.Commits {
				t.Errorf("snapshot shows %d write commits of %d commits", s.WriteCommits, s.Commits)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for tid := 0; tid < tids; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			w := &want[tid]
			cells := make([]Word, capacity+1)
			rng := uint64(tid)*0x9e3779b97f4a7c15 + 1
			next := func(n uint64) uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng % n
			}
			for c := 0; c < chains; c++ {
				left := 1 + int(next(8)) // windows this chain still has to commit
				var kind chainWindow
				var attempt int
				// script draws the next window and books what it will have
				// cost once committed. Every scripted window does commit:
				// nothing but its own script aborts it.
				script := func() {
					kind, attempt = chainWindow(next(numChainWin)), 0
					w.Commits++
					switch kind {
					case cwWrite:
						w.WriteCommits++
					case cwRestart:
						w.WriteCommits++
						w.Aborts[CauseExplicit]++
					case cwSerial:
						w.WriteCommits++
						w.SerialCommits++
						w.Aborts[CauseCapacity]++
					case cwExtend:
						w.Extensions++
						w.Commits++ // the nested transaction's
						w.WriteCommits++
					case cwRestart2:
						w.SerialCommits++
						w.Aborts[CauseExplicit] += 2
					}
				}
				script()
				rt.Chain(tid, func(tx *Tx) bool {
					attempt++
					switch kind {
					case cwRead:
						cells[0].Load(tx)
					case cwWrite:
						cells[1].Store(tx, uint64(c))
					case cwRestart:
						cells[1].Store(tx, uint64(c))
						if attempt == 1 {
							tx.Restart()
						}
					case cwSerial:
						cells[1].Store(tx, uint64(c))
						for i := range cells { // one write + capacity reads: over the limit
							cells[i].Load(tx)
						}
						if !tx.Serial() {
							t.Errorf("tid %d: a window of %d accesses ran speculatively at capacity %d", tid, len(cells), capacity)
						}
					case cwExtend:
						cells[0].Load(tx)
						rt.Atomic(func(in *Tx) { cells[2].Store(in, uint64(c)) })
						cells[2].Load(tx)
					case cwRestart2:
						cells[0].Load(tx)
						if attempt <= 2 {
							tx.Restart()
						}
					}
					// Only the attempt that commits gets here.
					if left--; left == 0 {
						return false
					}
					script()
					return true
				})
			}
		}(tid)
	}
	wg.Wait()
	stop.Store(true)
	reader.Wait()

	var sum Stats
	for i := range want {
		sum.Add(want[i])
	}
	got := rt.Stats()
	if got.Commits != sum.Commits || got.WriteCommits != sum.WriteCommits || got.SerialCommits != sum.SerialCommits ||
		got.Extensions != sum.Extensions || got.Aborts != sum.Aborts {
		t.Fatalf("at quiescence Stats reports\n  %v\nbut what ran was\n  %v", got, sum)
	}
	if sum.SerialCommits == 0 || sum.Extensions == 0 || sum.Aborts[CauseCapacity] == 0 {
		t.Fatalf("the script never went serial, extended or overflowed: %v", sum)
	}
	rt.ResetStats()
	if got := rt.Stats(); got != (Stats{}) {
		t.Fatalf("after ResetStats: %v", got)
	}
}

// TestStatsLagBoundedByChainsInFlight pins the bound Stats states (PR 20,
// ROADMAP 5(a)): a snapshot taken mid-run lags the truth by at most the
// chains in flight. Each goroutine runs chains of known window counts and
// keeps two counts: windows committed so far (by a commit hook, which runs
// before the chain's flush) and windows of chains that have returned (so
// have flushed). A reader brackets every snapshot's Commits between the
// flushed total read before it and the committed total read after it. At
// quiescence the three are one number; and a chain running alone shows its
// own windows only when it ends.
func TestStatsLagBoundedByChainsInFlight(t *testing.T) {
	const tids = 4
	chains := 400
	if testing.Short() {
		chains = 80
	}
	rt := NewRuntime(Profile{})
	var committed, flushed [tids]atomic.Uint64
	total := func(c *[tids]atomic.Uint64) (n uint64) {
		for i := range c {
			n += c[i].Load()
		}
		return n
	}
	onCommit := func(tid, _, _ uint64) { committed[tid].Add(1) }

	var stop atomic.Bool
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for !stop.Load() {
			lo := total(&flushed)
			s := rt.Stats()
			if hi := total(&committed); s.Commits < lo || s.Commits > hi {
				t.Errorf("mid-run Commits = %d, outside [%d flushed, %d committed]", s.Commits, lo, hi)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for tid := 0; tid < tids; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			var cell Word
			for c := 0; c < chains; c++ {
				windows := 1 + (c+tid)%16
				left := windows
				rt.Chain(tid, func(tx *Tx) bool {
					if left%2 == 0 {
						cell.Store(tx, uint64(c))
					} else {
						cell.Load(tx)
					}
					tx.OnCommitCall(onCommit, uint64(tid), 0, 0)
					left--
					return left > 0
				})
				flushed[tid].Add(uint64(windows))
			}
		}(tid)
	}
	wg.Wait()
	stop.Store(true)
	reader.Wait()
	if got, c, f := rt.Stats().Commits, total(&committed), total(&flushed); got != c || c != f {
		t.Fatalf("at quiescence Commits = %d, committed %d, flushed %d: want one number", got, c, f)
	}

	before := rt.Stats().Commits
	windows := 0
	rt.Chain(0, func(tx *Tx) bool {
		if got := rt.Stats().Commits; got != before {
			t.Errorf("window %d of a chain running alone: Commits = %d, want %d until the chain ends", windows, got, before)
		}
		windows++
		return windows < 5
	})
	if got := rt.Stats().Commits; got != before+5 {
		t.Fatalf("after the chain: Commits = %d, want %d", got, before+5)
	}
}

// TestContextFallback: which context a transaction runs in. A tid runs in
// the one it owns, created on its first transaction without disturbing the
// others'; tid -1, and a tid whose context is busy (a transaction nested in
// its own fn), run in a pooled one that publishes into the fallback block.
// A panic in fn that is not the abort signal runs the attempt's abort hooks,
// releases the context and leaves the tid usable.
func TestContextFallback(t *testing.T) {
	rt := NewRuntime(Profile{})
	var w Word
	ctx := func(tid int) (tx *Tx) {
		rt.AtomicT(tid, func(x *Tx) { tx = x; w.Store(x, 1) })
		return tx
	}

	if tx := ctx(-1); tx.stats != &rt.fallback || tx.busy {
		t.Fatalf("tid -1 ran in a context publishing into %p (busy %v), want the fallback block %p", tx.stats, tx.busy, &rt.fallback)
	}
	c0, c1 := ctx(0), ctx(1)
	if c0 == c1 || c0 != ctx(0) || c0 != rt.context(0) || c0.stats == &rt.fallback {
		t.Fatalf("tids 0 and 1 ran in %p and %p; each must own one context across transactions", c0, c1)
	}
	// A tid first seen mid-run grows the table; the others keep theirs, and
	// what they counted.
	before := rt.Stats()
	if c7 := ctx(7); c7 != rt.context(7) || c0 != ctx(0) || c1 != rt.context(1) {
		t.Fatal("growing the table for tid 7 moved a context")
	}
	if got := rt.Stats().Commits; got != before.Commits+2 {
		t.Fatalf("commits went %d -> %d over two transactions and a table growth", before.Commits, got)
	}

	// Busy: a transaction on tid 2 nested in tid 2's own fn.
	var outer, inner *Tx
	rt.AtomicT(2, func(tx *Tx) {
		outer = tx
		rt.AtomicT(2, func(in *Tx) { inner = in; w.Store(in, 2) })
	})
	if inner == outer || inner.stats != &rt.fallback || outer != rt.context(2) {
		t.Fatalf("nested transaction ran in %p (outer %p): want a pooled context", inner, outer)
	}
	if outer.busy || inner.busy {
		t.Fatal("a context is still busy after its chain ended")
	}

	// A user panic mid-chain, second window.
	hooks := 0
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the user's panic", r)
			}
		}()
		window := 0
		rt.Chain(2, func(tx *Tx) bool {
			window++
			w.Store(tx, 3)
			tx.OnAbortCall(func(_, _, _ uint64) { hooks++ }, 0, 0, 0)
			if window == 2 {
				panic("boom")
			}
			return true
		})
	}()
	if hooks != 1 {
		t.Fatalf("the panicking attempt's abort hooks ran %d times, want 1", hooks)
	}
	if outer.busy {
		t.Fatal("the panic left tid 2's context busy")
	}
	before = rt.Stats()
	if tx := ctx(2); tx != outer {
		t.Fatalf("after the panic tid 2 runs in %p, want its own context %p", tx, outer)
	}
	if got := rt.Stats().Commits; got != before.Commits+1 || w.Raw() != 1 {
		t.Fatalf("after the panic: commits %d -> %d, w = %d", before.Commits, got, w.Raw())
	}
}
