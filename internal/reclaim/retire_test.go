package reclaim

import (
	"math/rand"
	"slices"
	"testing"

	"hohtx/internal/arena"
	"hohtx/internal/obs"
)

// TestRetireListBooks runs one scripted mix of retires, protects, slot
// clears, clock moves and Flushes over each deferred scheme, with a probe
// that samples every event attached and a request span armed on the
// retiring thread. After every call it checks the scheme against a model
// of its policy, kept here apart from the code: which handles were freed
// and in what order (the hazard, interval, fence-passed and e+2 tests, and
// when each scheme sweeps), Retired = Freed + Deferred, every counter, the
// reclaim_delay_ops histogram against Freed and DelayOpsSum, and the
// span's Reclaim phase: positive once a pass has freed, still on a call
// that made no pass. Leak must free nothing and never sweep.
func TestRetireListBooks(t *testing.T) {
	const (
		threshold    = 4 // HP's and HE's scan threshold
		tickEvery    = 5 // VBR's self-tick
		advanceEvery = 3 // epochs' advance attempts
	)
	type entry struct{ h, op, stamp, birth uint64 }
	for _, name := range []string{"HP", "HE", "VBR", "Epochs", "Leak"} {
		t.Run(name, func(t *testing.T) {
			a := arena.New[node](arena.Config{Threads: 2})
			var freed []uint64
			free := func(tid int, h arena.Handle) {
				freed = append(freed, uint64(h))
				a.Free(tid, h)
			}
			clk := &fakeClock{v: 10}
			var s Scheme
			switch name {
			case "HP":
				s = NewHazardPointers(HPConfig{Threads: 2, ScanThreshold: threshold, Free: free})
			case "HE":
				s = NewHazardEras(nodesOf(2, threshold, free))
			case "VBR":
				s = newFakeVBR(nodesOf(2, tickEvery, free), clk)
			case "Epochs":
				s = NewEpochs(nodesOf(2, advanceEvery, free))
			case "Leak":
				s = NewLeak(nodesOf(2, 0, free))
			}
			d := obs.NewDomain(obs.DomainConfig{Name: name, Threads: 2, SampleShift: 0})
			probe := d.TxProbe()
			s.SetObserver(probe)
			sp := new(obs.Span)
			sp.Reset("books", obs.Now())
			d.SetSpan(0, sp)

			// The model: tid 0's list, tid 1's published slots, the clocks.
			var (
				list      []entry
				want      []uint64 // freed handles, in order
				pub       [2]uint64
				st        Stats
				era       = uint64(1) // HE
				global    uint64      // epochs
				active    [2]bool
				announced [2]uint64
				everKept  bool
			)
			held := func(r entry, now uint64) bool {
				switch name {
				case "HP":
					return r.h == pub[0] || r.h == pub[1]
				case "HE":
					for _, e := range pub {
						if e != 0 && r.birth <= e && e <= r.stamp {
							return true
						}
					}
					return false
				case "VBR":
					return int64(now-r.stamp) <= 0
				default: // Epochs
					return r.stamp+2 > now
				}
			}
			sweep := func(op, now uint64) {
				st.Scans++
				kept := list[:0]
				for _, r := range list {
					if held(r, now) {
						kept = append(kept, r)
						continue
					}
					want = append(want, r.h)
					st.Freed++
					st.DelayOpsSum += op - r.op
				}
				list = kept
				st.Leftover = uint64(len(list))
			}
			rescan := func(op uint64) {
				for len(list) > 0 {
					n := len(list)
					sweep(op, 0)
					if len(list) == n {
						return
					}
				}
			}
			drain := func(op, now uint64) { // the ordered schemes' trigger
				switch {
				case len(list) == 0:
				case held(list[0], now):
					st.Leftover = uint64(len(list))
				default:
					sweep(op, now)
				}
			}
			tryAdvance := func() {
				for i := range active {
					if active[i] && announced[i] != global {
						return
					}
				}
				global++
			}
			enter := func(tid int) {
				s.Enter(tid)
				if name == "Epochs" {
					active[tid], announced[tid] = true, global
				}
			}
			exit := func(tid int) {
				s.Exit(tid)
				active[tid] = false
			}

			rng := rand.New(rand.NewSource(11))
			for op := uint64(1); op <= 600; op++ {
				scansBefore, reclaimBefore := s.Stats().Scans, sp.Phase(obs.SpanReclaim)
				switch k := rng.Intn(10); {
				case k < 5: // tid 0 allocates and retires a node
					h := a.Alloc(0)
					s.Born(h)
					e := entry{h: uint64(h), op: op, birth: era}
					enter(0)
					s.Retire(0, h, op)
					exit(0)
					list = append(list, e)
					st.Retired++
					st.PeakDeferred = max(st.PeakDeferred, st.Retired-st.Freed)
					switch name {
					case "HP", "HE":
						list[len(list)-1].stamp = era
						era++
						if len(list) >= threshold {
							sweep(op, 0)
						}
					case "VBR":
						list[len(list)-1].stamp = clk.v
						if st.Retired%tickEvery == 0 {
							clk.tick()
						}
						drain(op, clk.v)
					case "Epochs":
						list[len(list)-1].stamp = global
						if st.Retired%advanceEvery == 0 {
							tryAdvance()
						}
						drain(op, global)
					case "Leak":
						list = list[:0] // Leak keeps no list
					}
				case k < 7: // tid 1 publishes a slot: a retiree of tid 0's, or clears it
					slot, h := rng.Intn(2), arena.Handle(0)
					if len(list) > 0 && rng.Intn(4) > 0 {
						h = arena.Handle(list[rng.Intn(len(list))].h)
					}
					if got := s.Protect(1, slot, h); got != h {
						t.Fatalf("op %d: Protect returned %v, want %v", op, got, h)
					}
					switch {
					case name == "HP":
						pub[slot] = uint64(h)
					case name == "HE" && h != 0:
						pub[slot] = era
					case name == "HE":
						pub[slot] = 0
					}
				case k < 8:
					s.ClearSlots(1)
					pub = [2]uint64{}
				case k < 9: // the clock moves: a writer ticks the fence, a reader enters or leaves
					switch {
					case name == "VBR":
						clk.tick()
					case active[1]:
						exit(1)
					default:
						enter(1)
					}
				default:
					before := clk.v
					s.Flush(0, op)
					switch name {
					case "HP", "HE":
						rescan(op)
					case "VBR":
						drain(op, before)
						drain(op, clk.v)
					case "Epochs":
						for range 3 {
							tryAdvance()
						}
						drain(op, global)
					}
				}

				got := s.Stats()
				st.Deferred = st.Retired - st.Freed
				if got.Retired != got.Freed+got.Deferred {
					t.Fatalf("op %d: retired %d != freed %d + deferred %d", op, got.Retired, got.Freed, got.Deferred)
				}
				if !slices.Equal(freed, want) {
					t.Fatalf("op %d: freed %v, model %v", op, freed, want)
				}
				if got != st {
					t.Fatalf("op %d: stats %+v, model %+v", op, got, st)
				}
				if hs := probe.DelayOps.Snapshot(); hs.Count != got.Freed || hs.Sum != got.DelayOpsSum {
					t.Fatalf("op %d: reclaim_delay_ops count %d sum %d, want %d and %d", op, hs.Count, hs.Sum, got.Freed, got.DelayOpsSum)
				}
				reclaim := sp.Phase(obs.SpanReclaim)
				if got.Freed > 0 && reclaim == 0 {
					t.Fatalf("op %d: %d freed but the span's Reclaim phase is 0", op, got.Freed)
				}
				if got.Scans == scansBefore && reclaim != reclaimBefore {
					t.Fatalf("op %d: no pass, yet the Reclaim phase moved %d -> %d", op, reclaimBefore, reclaim)
				}
				everKept = everKept || got.Leftover > 0
			}
			if name == "Leak" {
				if st.Freed != 0 || st.Scans != 0 {
					t.Fatalf("Leak freed %d in %d passes", st.Freed, st.Scans)
				}
			} else if st.Freed == 0 || !everKept {
				t.Fatalf("script too tame: freed %d, a pass kept a retiree: %v", st.Freed, everKept)
			}
		})
	}
}
