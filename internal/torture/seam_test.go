package torture

import (
	"hohtx/internal/family"
	"math/rand"
	"sync"
	"testing"

	"hohtx/internal/arena"
	"hohtx/internal/bench"
	"hohtx/internal/obs"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
)

// The additive proof of the reclamation seam: a scheme that exists only in
// this file runs under the singly linked list, the external tree and the
// skiplist through their public Config — registered under a variant label,
// selected like any other mode — with no structure knowing it exists.
//
// toyHP is a deliberately naive pinning scheme: one mutex guards a slot
// table and a single retired list, and every Retire scans. It shares no
// code with reclaim.HazardPointers.
type toyHP struct {
	mu      sync.Mutex
	slots   map[[2]int]arena.Handle // (tid, slot) -> published handle
	retired []toyRetiree
	stats   reclaim.Stats
	free    reclaim.FreeFunc
}

// toyRetiree is a retired handle and the caller's stamp at its retirement.
type toyRetiree struct {
	h     arena.Handle
	stamp uint64
}

var toyMode = reclaim.RegisterScheme("TMTOY", func(n reclaim.Nodes) reclaim.Scheme {
	return &toyHP{slots: map[[2]int]arena.Handle{}, free: n.Free}
})

func (s *toyHP) Enter(int)                {}
func (s *toyHP) Exit(int)                 {}
func (s *toyHP) Born(arena.Handle)        {}
func (s *toyHP) SetObserver(*obs.TxProbe) {}
func (s *toyHP) Traits() reclaim.Traits {
	return reclaim.Traits{Deferred: true, DrainRounds: 2, StrandBound: true, Pins: true}
}

func (s *toyHP) Protect(tid, slot int, h arena.Handle) arena.Handle {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.IsNil() {
		delete(s.slots, [2]int{tid, slot})
	} else {
		s.slots[[2]int{tid, slot}] = h
	}
	return h
}

func (s *toyHP) ClearSlots(tid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.slots {
		if k[0] == tid {
			delete(s.slots, k)
		}
	}
}

func (s *toyHP) Retire(tid int, h arena.Handle, stamp uint64) {
	s.mu.Lock()
	s.retired = append(s.retired, toyRetiree{h, stamp})
	s.stats.Retired++
	s.stats.PeakDeferred = max(s.stats.PeakDeferred, s.stats.Retired-s.stats.Freed)
	s.mu.Unlock()
	s.Flush(tid, stamp)
}

func (s *toyHP) Flush(tid int, stamp uint64) {
	s.mu.Lock()
	pinned := map[arena.Handle]bool{}
	for _, h := range s.slots {
		pinned[h] = true
	}
	var free []arena.Handle
	kept := s.retired[:0]
	for _, r := range s.retired {
		if pinned[r.h] {
			kept = append(kept, r)
		} else {
			free = append(free, r.h)
			s.stats.DelayOpsSum += stamp - r.stamp
		}
	}
	s.retired = kept
	s.stats.Scans++
	s.stats.Freed += uint64(len(free))
	s.stats.Leftover = uint64(len(kept))
	s.mu.Unlock()
	for _, h := range free {
		s.free(tid, h)
	}
}

func (s *toyHP) Stats() reclaim.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Deferred = st.Retired - st.Freed
	return st
}

var seamStructures = []string{family.Singly, family.ETree, family.Skip}

// TestSeamTestOnlySchemeVsModel drives each structure over the toy scheme
// with a long sequential script against a map model, through sets.Set only.
func TestSeamTestOnlySchemeVsModel(t *testing.T) {
	for _, structure := range seamStructures {
		t.Run(structure, func(t *testing.T) {
			cfg := Config{Structure: structure, Variant: toyMode.String(), Threads: 1, Window: 3, Guard: true}.withDefaults()
			inst, err := build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := inst.set
			want := (&toyHP{}).Traits()
			want.StrictLoss = true // the deferred link's own contribution
			if inst.traits != want {
				t.Fatalf("structure reports traits %+v, want the scheme's %+v", inst.traits, want)
			}
			s.Register(0)
			rng := rand.New(rand.NewSource(7))
			model := map[uint64]bool{}
			for i := 0; i < 4000; i++ {
				key := uint64(rng.Intn(96)) + 1
				var got, want bool
				switch rng.Intn(3) {
				case 0:
					got, want = s.Insert(0, key), !model[key]
					model[key] = true
				case 1:
					got, want = s.Remove(0, key), model[key]
					delete(model, key)
				default:
					got, want = s.Lookup(0, key), model[key]
				}
				if got != want {
					t.Fatalf("op %d on key %d = %v, want %v", i, key, got, want)
				}
			}
			var keys []uint64
			for k := range model {
				keys = append(keys, k)
			}
			if got := s.Snapshot(); !sets.KeysEqual(got, keys) {
				t.Fatalf("final snapshot %v, model %v", got, keys)
			}
			s.Finish(0)
			st := inst.view.ReclaimStats()
			if st.Retired == 0 || st.Deferred != 0 || st.Freed != st.Retired {
				t.Fatalf("toy scheme's books after Finish: %+v", st)
			}
			if evs := inst.guard.take(); len(evs) != 0 {
				t.Fatalf("guard violations: %v", evs)
			}
		})
	}
}

// TestSeamTestOnlySchemeTorture runs one short guarded torture cell per
// structure over the toy scheme: oracle, memory books (drained in the
// scheme's own DrainRounds, leftovers slot-bounded after round one) and
// the use-after-free sanitizer.
func TestSeamTestOnlySchemeTorture(t *testing.T) {
	threads, ops, keys := sweepParams(true)
	for i, structure := range seamStructures {
		t.Run(structure, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Structure: structure, Variant: toyMode.String(), Policy: arena.PolicyShared,
				Threads: threads, Ops: ops, Keys: keys, LookupPct: 20, Window: 2 + i,
				Shards: 1 + i%2, Seed: 0x70f + uint64(i), Guard: true,
			}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Removes == 0 {
				t.Fatalf("degenerate run: no removes (repro: %s)", cfg)
			}
		})
	}
}

// TestSeamTestOnlySchemeBuildsAsVariant: the label is a variant name to
// everything that builds by name.
func TestSeamTestOnlySchemeBuildsAsVariant(t *testing.T) {
	for _, f := range []bench.Family{bench.FamilySingly, bench.FamilyDoubly, bench.FamilyExternalTree, bench.FamilySkipList} {
		s, err := bench.Build(f, bench.VariantSpec{Name: toyMode.String()}, 2)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if want := toyMode.String(); s.Name() != want && s.Name() != want+"/skip" {
			t.Fatalf("%s: built %q, want %q", f, s.Name(), want)
		}
	}
	if _, err := bench.Build(bench.FamilyInternalTree, bench.VariantSpec{Name: toyMode.String()}, 2); err == nil {
		t.Fatal("the internal tree accepted a deferred scheme")
	}
}
