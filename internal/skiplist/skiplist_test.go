package skiplist

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hohtx/internal/core"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

func variants(threads, w int) []*SkipList {
	var out []*SkipList
	for _, k := range core.Kinds() {
		out = append(out, New(Config{Mode: reclaim.ModeRR, RRKind: k, Threads: threads, Window: core.Window{W: w}}))
	}
	out = append(out,
		New(Config{Mode: reclaim.ModeHTM, Threads: threads}),
		New(Config{Mode: reclaim.ModeTMHE, Threads: threads, Window: core.Window{W: w}, ScanThreshold: 8}),
		New(Config{Mode: reclaim.ModeTMVBR, Threads: threads, Window: core.Window{W: w}, ScanThreshold: 8}),
	)
	return out
}

func TestSequentialSemantics(t *testing.T) {
	for _, s := range variants(1, 4) {
		t.Run(s.Name(), func(t *testing.T) {
			s.Register(0)
			if s.Lookup(0, 5) || s.Remove(0, 5) {
				t.Fatal("empty skiplist misbehaved")
			}
			for _, k := range []uint64{50, 10, 90, 30, 70} {
				if !s.Insert(0, k) {
					t.Fatalf("insert %d", k)
				}
			}
			if s.Insert(0, 30) {
				t.Fatal("duplicate insert")
			}
			for _, k := range []uint64{10, 30, 50, 70, 90} {
				if !s.Lookup(0, k) {
					t.Fatalf("lookup %d", k)
				}
			}
			if s.Lookup(0, 40) {
				t.Fatal("phantom key")
			}
			if !s.Remove(0, 50) || s.Remove(0, 50) {
				t.Fatal("remove semantics")
			}
			if got := s.Snapshot(); !sets.KeysEqual(got, []uint64{10, 30, 70, 90}) {
				t.Fatalf("snapshot = %v", got)
			}
			if !s.ValidateLevels() {
				t.Fatal("level structure invalid")
			}
		})
	}
}

func TestSequentialVsModel(t *testing.T) {
	for _, s := range variants(1, 3) {
		t.Run(s.Name(), func(t *testing.T) {
			s.Register(0)
			rng := rand.New(rand.NewSource(21))
			model := map[uint64]bool{}
			for i := 0; i < 4000; i++ {
				key := uint64(rng.Intn(256)) + 1
				switch rng.Intn(3) {
				case 0:
					if got, want := s.Insert(0, key), !model[key]; got != want {
						t.Fatalf("op %d: Insert(%d) = %v want %v", i, key, got, want)
					}
					model[key] = true
				case 1:
					if got, want := s.Remove(0, key), model[key]; got != want {
						t.Fatalf("op %d: Remove(%d) = %v want %v", i, key, got, want)
					}
					delete(model, key)
				default:
					if got, want := s.Lookup(0, key), model[key]; got != want {
						t.Fatalf("op %d: Lookup(%d) = %v want %v", i, key, got, want)
					}
				}
				if i%1000 == 0 && !s.ValidateLevels() {
					t.Fatalf("levels invalid at op %d", i)
				}
			}
			var want []uint64
			for k := range model {
				want = append(want, k)
			}
			if got := s.Snapshot(); !sets.KeysEqual(got, want) {
				t.Fatal("final snapshot mismatch")
			}
		})
	}
}

func TestPreciseReclamation(t *testing.T) {
	s := New(Config{Mode: reclaim.ModeRR, RRKind: core.KindV, Threads: 1, Window: core.Window{W: 4}})
	s.Register(0)
	for k := uint64(1); k <= 300; k++ {
		s.Insert(0, k)
	}
	if live := s.LiveNodes(); live != 301 {
		t.Fatalf("live = %d, want 301", live)
	}
	for k := uint64(1); k <= 300; k++ {
		if !s.Remove(0, k) {
			t.Fatalf("remove %d", k)
		}
		if s.DeferredNodes() != 0 {
			t.Fatal("skiplist deferred a free")
		}
	}
	if live := s.LiveNodes(); live != 1 {
		t.Fatalf("live = %d after emptying, want 1 (sentinel)", live)
	}
}

func TestHeightDistribution(t *testing.T) {
	s := New(Config{Mode: reclaim.ModeHTM, Threads: 1})
	counts := map[int]int{}
	for i := 0; i < 20000; i++ {
		counts[s.randHeight(0)]++
	}
	if counts[1] < 8000 || counts[1] > 12000 {
		t.Fatalf("P(h=1) skewed: %d/20000", counts[1])
	}
	if counts[2] < 3500 || counts[2] > 6500 {
		t.Fatalf("P(h=2) skewed: %d/20000", counts[2])
	}
	for h := range counts {
		if h < 1 || h > MaxHeight {
			t.Fatalf("height %d out of range", h)
		}
	}
}

func TestConcurrentStress(t *testing.T) {
	const threads = 8
	for _, s := range variants(threads, 4) {
		t.Run(s.Name(), func(t *testing.T) {
			var succIns, succRem atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					s.Register(tid)
					rng := rand.New(rand.NewSource(int64(tid)*4241 + 3))
					for i := 0; i < 1200; i++ {
						key := uint64(rng.Intn(256)) + 1
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
					t.Fatal("snapshot not sorted")
				}
			}
			if int64(len(snap)) != succIns.Load()-succRem.Load() {
				t.Fatalf("balance: |set|=%d ins-rem=%d", len(snap), succIns.Load()-succRem.Load())
			}
			if !s.ValidateLevels() {
				t.Fatal("levels invalid after stress")
			}
			// Deferred covers retirees stranded by a racing thread's still-
			// published reservation at Finish time (bounded; zero for the
			// precise modes).
			if live, want := s.LiveNodes(), uint64(len(snap))+1+s.DeferredNodes(); live != want {
				t.Fatalf("memory books: live=%d want=%d", live, want)
			}
		})
	}
}

// TestRemoveTallTowers forces removals of tall nodes whose unlink touches
// many levels, including via resumed traversals (tiny window).
func TestRemoveTallTowers(t *testing.T) {
	s := New(Config{Mode: reclaim.ModeRR, RRKind: core.KindXO, Threads: 2, Window: core.Window{W: 1}})
	s.Register(0)
	s.Register(1)
	// Insert enough keys that some towers are 5+ levels tall.
	for k := uint64(1); k <= 2000; k++ {
		s.Insert(0, k)
	}
	// Remove every key with W=1 windows (maximal cut/resume churn).
	for k := uint64(1); k <= 2000; k++ {
		if !s.Remove(1, k) {
			t.Fatalf("remove %d", k)
		}
	}
	if !s.ValidateLevels() {
		t.Fatal("levels invalid")
	}
	if live := s.LiveNodes(); live != 1 {
		t.Fatalf("live = %d, want 1", live)
	}
}

// TestRRVLookupWindowsCommitReadOnly: as on the list (list_test.go), a
// lookup's RR-V windows — here several per descent — write no shared
// state: no write commit, and the runtime's clock stays where it was.
func TestRRVLookupWindowsCommitReadOnly(t *testing.T) {
	const n, w = 1024, 2
	s := New(Config{Mode: reclaim.ModeRR, RRKind: core.KindV, Threads: 1, Window: core.Window{W: w}})
	s.Register(0)
	for k := uint64(1); k <= n; k++ {
		s.Insert(0, 2*k)
	}
	before, fence := s.RT.Stats(), s.RT.VersionFence()
	const lookups = 64
	for i := uint64(0); i < lookups; i++ {
		k := 1 + i*(2*n/lookups)
		if got, want := s.Lookup(0, k), k%2 == 0; got != want {
			t.Fatalf("Lookup(%d) = %v, want %v", k, got, want)
		}
	}
	after := s.RT.Stats()
	if windows := after.Commits - before.Commits; windows < 2*lookups {
		t.Fatalf("%d lookups committed %d transactions, want several windows each", lookups, windows)
	}
	if wrote := after.WriteCommits - before.WriteCommits; wrote != 0 || s.RT.VersionFence() != fence {
		t.Fatalf("lookup windows wrote: %d write commits, clock %d -> %d", wrote, fence, s.RT.VersionFence())
	}
}

// TestAbortedTallInsertFreesEachSlotOnce: an insert whose transaction
// allocates a node and its tower and then aborts gives each slot back
// exactly once — the node through the link's abort hook, whose free finds
// no tower written back into the node, and the tower through its own — and
// the retry commits. The slots it takes held a removed tall key's node and
// tower, so the node's tower cell still names a freed tower unless the
// free cleared it (guard off) or poisoned it (guard on); a free that
// trusted it would free that tower twice, which the arena panics on.
func TestAbortedTallInsertFreesEachSlotOnce(t *testing.T) {
	for _, guard := range []bool{false, true} {
		s := New(Config{Threads: 1, Guard: guard})
		s.Register(0)
		if !s.op(0, sets.Op{Kind: sets.OpInsert, Key: 10}, MaxHeight) || !s.Remove(0, 10) {
			t.Fatal("tall insert and remove of key 10")
		}
		nodes, towers := s.Ar.Stats(), s.towers.Stats()
		attempts := 0
		s.RT.AtomicT(0, func(tx *stm.Tx) {
			attempts++
			if res, _, _, _ := s.step(&searchCtx{tx: tx, curr: s.head, level: top}, sets.Op{Kind: sets.OpInsert, Key: 20}, MaxHeight, reclaim.Uncut); !res {
				t.Errorf("guard %v: attempt %d: insert of 20 failed", guard, attempts)
			}
			if attempts == 1 {
				tx.Restart()
			}
		})
		nodesAfter, towersAfter := s.Ar.Stats(), s.towers.Stats()
		if got := nodesAfter.Frees - nodes.Frees; got != 1 {
			t.Errorf("guard %v: the aborted attempt freed %d nodes, want 1", guard, got)
		}
		if got := towersAfter.Frees - towers.Frees; got != 1 {
			t.Errorf("guard %v: the aborted attempt freed %d towers, want 1", guard, got)
		}
		if nodesAfter.Live != 2 || towersAfter.Live != 2 {
			t.Errorf("guard %v: live %d nodes, %d towers, want 2 and 2 (head and key 20)", guard, nodesAfter.Live, towersAfter.Live)
		}
		if !s.Lookup(0, 20) || !s.ValidateLevels() {
			t.Errorf("guard %v: the retried insert did not land whole", guard)
		}
	}
}

// TestTowerBooks: at rest, once a mode has drained, the tower arena holds
// the head's tower and one per resident key taller than nodeLevels — in
// every mode, after inserts and removes of every height; and
// ValidateLevels, the family's invariant, fails on a tower no node owns.
func TestTowerBooks(t *testing.T) {
	for _, s := range variants(1, 3) {
		t.Run(s.Name(), func(t *testing.T) {
			s.Register(0)
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 3000; i++ {
				if key := uint64(rng.Intn(512)) + 1; rng.Intn(2) == 0 {
					s.Insert(0, key)
				} else {
					s.Remove(0, key)
				}
			}
			s.Finish(0)
			tall := uint64(1)
			for h := s.rawNext(s.head, 0); !h.IsNil(); h = s.rawNext(h, 0) {
				if s.Ar.At(h).height.Raw() > nodeLevels {
					tall++
				}
			}
			if d := s.DeferredNodes(); d != 0 {
				t.Fatalf("%d nodes deferred after Finish", d)
			}
			if live := s.towers.Stats().Live; live != tall || tall < 10 {
				t.Fatalf("tower arena live %d, want %d: the head's and one per tall key", live, tall)
			}
			if !s.ValidateLevels() {
				t.Fatal("levels invalid")
			}
			s.towers.Alloc(0) // a tower no node owns
			if s.ValidateLevels() {
				t.Fatal("ValidateLevels passed a leaked tower")
			}
		})
	}
}
