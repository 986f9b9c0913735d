package list

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// variants returns one list per mechanism under test, singly linked.
func variants(threads int, w int) []*List {
	var out []*List
	for _, k := range core.Kinds() {
		out = append(out, New(Config{Mode: reclaim.ModeRR, RRKind: k, Threads: threads, Window: core.Window{W: w}}))
	}
	out = append(out,
		New(Config{Mode: reclaim.ModeHTM, Threads: threads}),
		New(Config{Mode: reclaim.ModeTMHP, Threads: threads, Window: core.Window{W: w}, ScanThreshold: 8}),
		New(Config{Mode: reclaim.ModeTMHE, Threads: threads, Window: core.Window{W: w}, ScanThreshold: 8}),
		New(Config{Mode: reclaim.ModeTMVBR, Threads: threads, Window: core.Window{W: w}, ScanThreshold: 8}),
		New(Config{Mode: ModeREF, Threads: threads, Window: core.Window{W: w}}),
		New(Config{Mode: ModeER, Threads: threads, Window: core.Window{W: w}, ScanThreshold: 8}),
	)
	return out
}

func TestSequentialSemantics(t *testing.T) {
	for _, l := range variants(1, 3) {
		t.Run(l.Name(), func(t *testing.T) {
			l.Register(0)
			if l.Lookup(0, 5) {
				t.Fatal("lookup on empty list")
			}
			if !l.Insert(0, 5) || !l.Insert(0, 3) || !l.Insert(0, 9) {
				t.Fatal("insert of new key failed")
			}
			if l.Insert(0, 5) {
				t.Fatal("duplicate insert succeeded")
			}
			if !l.Lookup(0, 3) || !l.Lookup(0, 5) || !l.Lookup(0, 9) {
				t.Fatal("lookup of present key failed")
			}
			if l.Lookup(0, 4) || l.Lookup(0, 100) {
				t.Fatal("lookup of absent key succeeded")
			}
			if !l.Remove(0, 5) {
				t.Fatal("remove of present key failed")
			}
			if l.Remove(0, 5) {
				t.Fatal("remove of absent key succeeded")
			}
			if got := l.Snapshot(); !sets.KeysEqual(got, []uint64{3, 9}) {
				t.Fatalf("snapshot = %v, want [3 9]", got)
			}
			l.Finish(0)
		})
	}
}

// TestSequentialVsModel drives each variant with a long random script and
// compares every return value against a map model.
func TestSequentialVsModel(t *testing.T) {
	for _, l := range variants(1, 4) {
		t.Run(l.Name(), func(t *testing.T) {
			l.Register(0)
			rng := rand.New(rand.NewSource(42))
			model := map[uint64]bool{}
			for i := 0; i < 4000; i++ {
				key := uint64(rng.Intn(64)) + 1
				switch rng.Intn(3) {
				case 0:
					if got, want := l.Insert(0, key), !model[key]; got != want {
						t.Fatalf("op %d: Insert(%d) = %v, want %v", i, key, got, want)
					}
					model[key] = true
				case 1:
					if got, want := l.Remove(0, key), model[key]; got != want {
						t.Fatalf("op %d: Remove(%d) = %v, want %v", i, key, got, want)
					}
					delete(model, key)
				case 2:
					if got, want := l.Lookup(0, key), model[key]; got != want {
						t.Fatalf("op %d: Lookup(%d) = %v, want %v", i, key, got, want)
					}
				}
			}
			var want []uint64
			for k := range model {
				want = append(want, k)
			}
			if got := l.Snapshot(); !sets.KeysEqual(got, want) {
				t.Fatalf("final snapshot mismatch: %v vs model %v", got, want)
			}
			l.Finish(0)
		})
	}
}

// TestPreciseReclamation checks the paper's headline property for the RR
// variants: a removed node's memory is free the moment Remove returns, so
// live-node accounting exactly tracks the set size (plus the sentinel).
func TestPreciseReclamation(t *testing.T) {
	for _, k := range core.Kinds() {
		l := New(Config{Mode: reclaim.ModeRR, RRKind: k, Threads: 1, Window: core.Window{W: 4}})
		t.Run(l.Name(), func(t *testing.T) {
			l.Register(0)
			for key := uint64(1); key <= 100; key++ {
				l.Insert(0, key)
			}
			if live := l.LiveNodes(); live != 101 {
				t.Fatalf("live = %d, want 101", live)
			}
			for key := uint64(1); key <= 100; key += 2 {
				l.Remove(0, key)
				if l.DeferredNodes() != 0 {
					t.Fatal("precise variant deferred a free")
				}
			}
			if live := l.LiveNodes(); live != 51 {
				t.Fatalf("live after removes = %d, want 51", live)
			}
		})
	}
}

// TestTMHPDefersReclamation checks the contrast case: hazard-pointer
// reclamation leaves retired nodes unfreed until a scan.
func TestTMHPDefersReclamation(t *testing.T) {
	l := New(Config{Mode: reclaim.ModeTMHP, Threads: 1, Window: core.Window{W: 4}, ScanThreshold: 1000})
	l.Register(0)
	for key := uint64(1); key <= 50; key++ {
		l.Insert(0, key)
	}
	for key := uint64(1); key <= 50; key++ {
		l.Remove(0, key)
	}
	if def := l.DeferredNodes(); def != 50 {
		t.Fatalf("deferred = %d, want 50 (threshold not reached)", def)
	}
	if live := l.LiveNodes(); live != 51 {
		t.Fatalf("live = %d, want 51 (50 deferred + sentinel)", live)
	}
	l.Finish(0)
	if def := l.DeferredNodes(); def != 0 {
		t.Fatalf("deferred after flush = %d", def)
	}
	if live := l.LiveNodes(); live != 1 {
		t.Fatalf("live after flush = %d, want 1", live)
	}
}

// TestFigure1Scenario replays the execution of the paper's Figure 1 at the
// list level: T2 reserves the node holding 30 at a window boundary; T4
// removes 30 (revoking T2's reservation and freeing the node immediately);
// T2's next window finds its reservation gone, restarts from the head, and
// still computes the correct answer.
func TestFigure1Scenario(t *testing.T) {
	for _, k := range core.Kinds() {
		l := New(Config{Mode: reclaim.ModeRR, RRKind: k, Threads: 5, Window: core.Window{W: 4}})
		t.Run(l.Name(), func(t *testing.T) {
			for tid := 0; tid < 5; tid++ {
				l.Register(tid)
			}
			for _, key := range []uint64{10, 20, 30, 40, 50, 60, 70, 80, 90} {
				l.Insert(0, key)
			}
			// Locate the node holding 30.
			var h30 arena.Handle
			for h := arena.Handle(l.Ar.At(l.head).next.Raw()); !h.IsNil(); h = arena.Handle(l.Ar.At(h).next.Raw()) {
				if l.Ar.At(h).key.Raw() == 30 {
					h30 = h
					break
				}
			}
			if h30.IsNil() {
				t.Fatal("node 30 not found")
			}
			// T2's first window ends reserving node 30 (as in the figure).
			l.RT.Atomic(func(tx *stm.Tx) { l.Link.Hold(tx, 2, false, h30, 0) })
			// T4 removes 30: revokes all reservations of it and frees it
			// before Remove returns.
			if !l.Remove(4, 30) {
				t.Fatal("Remove(30) failed")
			}
			if l.Ar.Live(h30) {
				t.Fatal("node 30 still allocated after Remove returned (not precise)")
			}
			// T2's next transaction must see its reservation revoked …
			got := stm.Run(l.RT, func(tx *stm.Tx) arena.Handle {
				h, _, _ := l.Link.Resume(tx, 2)
				return h
			})
			if !got.IsNil() {
				t.Fatalf("T2's reservation survived the revoke: %v", got)
			}
			// … and a full operation by T2 restarts from the head and is
			// still correct.
			if !l.Lookup(2, 70) {
				t.Fatal("Lookup(70) after revocation returned false")
			}
			if l.Lookup(2, 30) {
				t.Fatal("Lookup(30) found a removed key")
			}
		})
	}
}

// runStress hammers a set with mixed operations and verifies the
// operation-count balance invariant, snapshot sortedness, and memory
// accounting.
func runStress(t *testing.T, s sets.Set, threads, iters int, keyRange uint64, mem sets.MemoryReporter) {
	t.Helper()
	var succIns, succRem atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s.Register(tid)
			rng := rand.New(rand.NewSource(int64(tid)*7919 + 1))
			for i := 0; i < iters; i++ {
				key := uint64(rng.Int63())%keyRange + 1
				switch rng.Intn(3) {
				case 0:
					if s.Insert(tid, key) {
						succIns.Add(1)
					}
				case 1:
					if s.Remove(tid, key) {
						succRem.Add(1)
					}
				default:
					s.Lookup(tid, key)
				}
			}
			s.Finish(tid)
		}(w)
	}
	wg.Wait()

	snap := s.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1] >= snap[i] {
			t.Fatalf("snapshot not strictly sorted at %d: %v >= %v", i, snap[i-1], snap[i])
		}
	}
	if int64(len(snap)) != succIns.Load()-succRem.Load() {
		t.Fatalf("balance violated: |set| = %d, inserts-removes = %d",
			len(snap), succIns.Load()-succRem.Load())
	}
	if mem != nil {
		if live, want := mem.LiveNodes(), uint64(len(snap))+1+mem.DeferredNodes(); live != want {
			t.Fatalf("memory books: live = %d, want %d (set+sentinel+deferred)", live, want)
		}
	}
}

func TestConcurrentStressSingly(t *testing.T) {
	const threads = 8
	for _, l := range variants(threads, 4) {
		t.Run(l.Name(), func(t *testing.T) {
			runStress(t, l, threads, 1500, 64, l)
		})
	}
}

func TestConcurrentStressWindowOne(t *testing.T) {
	// W=1 maximizes window cuts and reservation traffic.
	l := New(Config{Mode: reclaim.ModeRR, RRKind: core.KindXO, Threads: 4, Window: core.Window{W: 1}})
	runStress(t, l, 4, 800, 32, l)
}

func TestConcurrentStressTinyCapacity(t *testing.T) {
	// A tiny HTM capacity forces frequent serial fallbacks; correctness
	// must be unaffected.
	l := New(Config{
		Mode: reclaim.ModeRR, RRKind: core.KindV, Threads: 4,
		Window:  core.Window{W: 8},
		Profile: stm.Profile{Capacity: 24, MaxAttempts: 2},
	})
	runStress(t, l, 4, 600, 64, l)
	if l.RT.Stats().SerialCommits == 0 {
		t.Fatal("expected serial fallbacks with capacity 24")
	}
}

func TestDoublySequential(t *testing.T) {
	for _, mode := range []Mode{reclaim.ModeRR, reclaim.ModeHTM, reclaim.ModeTMHP, reclaim.ModeTMHE, reclaim.ModeTMVBR} {
		cfg := Config{Mode: mode, RRKind: core.KindFA, Threads: 1, Window: core.Window{W: 3}}
		d := NewDoubly(cfg)
		t.Run(d.Name(), func(t *testing.T) {
			d.Register(0)
			for _, k := range []uint64{5, 1, 9, 3, 7} {
				if !d.Insert(0, k) {
					t.Fatalf("insert %d failed", k)
				}
			}
			if !d.ValidateLinks() {
				t.Fatal("prev links broken after inserts")
			}
			if !d.Remove(0, 5) || d.Remove(0, 5) {
				t.Fatal("remove semantics wrong")
			}
			if !d.ValidateLinks() {
				t.Fatal("prev links broken after remove")
			}
			if got := d.Snapshot(); !sets.KeysEqual(got, []uint64{1, 3, 7, 9}) {
				t.Fatalf("snapshot = %v", got)
			}
			d.Finish(0)
		})
	}
}

func TestDoublyRemoveRace(t *testing.T) {
	// All threads try to remove the same key; exactly one must win. The
	// strict variants decide via lostOp, the relaxed ones via retry.
	for _, k := range []core.Kind{core.KindFA, core.KindXO, core.KindV} {
		d := NewDoubly(Config{Mode: reclaim.ModeRR, RRKind: k, Threads: 8, Window: core.Window{W: 2}})
		t.Run(d.Name(), func(t *testing.T) {
			for round := 0; round < 50; round++ {
				d.Register(0)
				if !d.Insert(0, 500) {
					t.Fatal("setup insert failed")
				}
				var wins atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < 8; w++ {
					wg.Add(1)
					go func(tid int) {
						defer wg.Done()
						d.Register(tid)
						if d.Remove(tid, 500) {
							wins.Add(1)
						}
					}(w)
				}
				wg.Wait()
				if wins.Load() != 1 {
					t.Fatalf("round %d: %d winners removing one key", round, wins.Load())
				}
			}
		})
	}
}

func TestDoublyConcurrentStress(t *testing.T) {
	const threads = 8
	kinds := core.Kinds()
	var all []*DList
	for _, k := range kinds {
		all = append(all, NewDoubly(Config{Mode: reclaim.ModeRR, RRKind: k, Threads: threads, Window: core.Window{W: 4}}))
	}
	all = append(all,
		NewDoubly(Config{Mode: reclaim.ModeHTM, Threads: threads}),
		NewDoubly(Config{Mode: reclaim.ModeTMHP, Threads: threads, Window: core.Window{W: 4}, ScanThreshold: 8}),
		NewDoubly(Config{Mode: reclaim.ModeTMHE, Threads: threads, Window: core.Window{W: 4}, ScanThreshold: 8}),
		NewDoubly(Config{Mode: reclaim.ModeTMVBR, Threads: threads, Window: core.Window{W: 4}, ScanThreshold: 8}),
	)
	for _, d := range all {
		t.Run(d.Name(), func(t *testing.T) {
			runStress(t, d, threads, 1200, 64, d)
			if !d.ValidateLinks() {
				t.Fatal("prev links broken after stress")
			}
		})
	}
}

func TestDoublyRejectsREF(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDoubly(ModeREF) did not panic")
		}
	}()
	NewDoubly(Config{Mode: ModeREF, Threads: 1})
}

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	for _, l := range variants(1, 4) {
		if l.Name() == "" || seen[l.Name()] {
			t.Fatalf("bad or duplicate name %q", l.Name())
		}
		seen[l.Name()] = true
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	l := New(Config{Mode: reclaim.ModeRR, RRKind: core.KindXO, Threads: 1, Window: core.Window{W: 1}})
	l.Register(0)
	if got := l.Snapshot(); len(got) != 0 {
		t.Fatalf("empty snapshot = %v", got)
	}
	if l.Remove(0, 1) {
		t.Fatal("remove on empty list")
	}
	if !l.Insert(0, 1) || !l.Remove(0, 1) {
		t.Fatal("singleton insert/remove")
	}
	if l.LiveNodes() != 1 {
		t.Fatalf("live = %d after emptying, want 1 (sentinel)", l.LiveNodes())
	}
}

// TestRRVLookupWindowsCommitReadOnly pins what RR-V's thread-private
// R_t/V_t buy (core/relaxed.go): a lookup's windows Get and Reserve without
// writing shared state, so however many of them a traversal takes, none
// locks a cell or advances the runtime's clock. The same traversal under
// RR-XO writes the ownership table at every hand-over, which shows the
// property is the scheme's and not an accident of the TM.
func TestRRVLookupWindowsCommitReadOnly(t *testing.T) {
	const n, w = 512, 8
	for _, tc := range []struct {
		kind     core.Kind
		readOnly bool
	}{{core.KindV, true}, {core.KindXO, false}} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			l := New(Config{Mode: reclaim.ModeRR, RRKind: tc.kind, Threads: 1, Window: core.Window{W: w}})
			l.Register(0)
			for k := uint64(1); k <= n; k++ {
				l.Insert(0, 2*k)
			}
			before, fence := l.RT.Stats(), l.RT.VersionFence()
			for k := uint64(2*n - 8); k <= 2*n; k++ {
				if got, want := l.Lookup(0, k), k%2 == 0; got != want {
					t.Fatalf("Lookup(%d) = %v, want %v", k, got, want)
				}
			}
			after := l.RT.Stats()

			if windows := after.Commits - before.Commits; windows <= n/w {
				t.Fatalf("lookups committed %d transactions, want more than n/W = %d", windows, n/w)
			}
			wrote := after.WriteCommits - before.WriteCommits
			moved := l.RT.VersionFence() != fence
			if tc.readOnly && (wrote != 0 || moved) {
				t.Fatalf("lookup windows wrote: %d write commits, clock %d -> %d", wrote, fence, l.RT.VersionFence())
			}
			if !tc.readOnly && (wrote == 0 || !moved) {
				t.Fatalf("lookup windows committed read-only: %d write commits, clock moved %v", wrote, moved)
			}
			l.Finish(0)
		})
	}
}

// TestApplyOnePassPerChain: a batch walks its chain once, however its ops
// arrive. Sixteen lookups over 300 keys, in descending arrival order, read
// each node once when each op starts where the last one on the chain
// stopped; starting each at the head would read eight times as many and
// overflow a capacity of 1 024 into a serial commit, and skipping the sort
// would start a lookup past its key.
func TestApplyOnePassPerChain(t *testing.T) {
	l := New(Config{Threads: 1, Profile: profileWithCapacity(1024)})
	l.Register(0)
	for k := uint64(1); k <= 300; k++ {
		l.Insert(0, k)
	}
	ops := make([]sets.Op, 16)
	for i := range ops {
		ops[i] = sets.Op{Kind: sets.OpLookup, Key: 300 - 19*uint64(i)}
	}
	before := l.RT.Stats().SerialCommits
	for i, found := range l.Apply(0, ops) {
		if !found {
			t.Errorf("the batch's lookup of %d missed", ops[i].Key)
		}
	}
	if n := l.RT.Stats().SerialCommits - before; n != 0 {
		t.Errorf("the batch committed serially %d times, want 0: one pass over 300 nodes fits 1 024", n)
	}
}

// TestAllocatedSlotPostdatesSnapshot pins the rule of reclaim's freer.born
// in deterministic form. An attempt reads its way to a node; a racing remove
// unlinks that node and frees it at commit; the shared free list then hands
// the attempt that very slot. The attempt is doomed — it would fail
// validation at commit — but left to run it initializes the slot over its
// own cursor, and a batch's traversal, which goes on after an insert, can
// then spin in the attempt's own pending writes without ever validating a
// read. The allocation must abort the attempt instead.
func TestAllocatedSlotPostdatesSnapshot(t *testing.T) {
	for _, mode := range []Mode{reclaim.ModeRR, reclaim.ModeHTM, ModeREF, reclaim.ModeTMHP} {
		t.Run(mode.String(), func(t *testing.T) {
			// ScanThreshold 1: the deferred mode frees at its first retire.
			l := New(Config{Mode: mode, Threads: 2, ArenaPolicy: arena.PolicyShared, ScanThreshold: 1})
			l.Register(0)
			l.Register(1)
			l.Insert(0, 10)
			l.Insert(0, 20)
			attempts, survived := 0, false
			l.RT.AtomicT(0, func(tx *stm.Tx) {
				if attempts++; attempts > 1 {
					return
				}
				h10 := arena.Handle(l.Ar.At(l.head).next.Load(tx))
				h20 := arena.Handle(l.Ar.At(h10).next.Load(tx))
				if got := l.Ar.At(h20).key.Load(tx); got != 20 {
					t.Fatalf("second node holds %d, want 20", got)
				}
				removed := make(chan bool)
				go func() { removed <- l.Remove(1, 20) }()
				if !<-removed {
					t.Fatal("the racing remove found nothing")
				}
				if nh := l.allocNode(tx, 0, 15, h20, arena.Nil); nh.Index() != h20.Index() {
					t.Fatalf("the allocator handed out slot %d, not the freed slot %d", nh.Index(), h20.Index())
				}
				survived = true
			})
			if survived {
				t.Fatal("an attempt went on after being handed the freed slot of a node it had read its way to")
			}
		})
	}
}
