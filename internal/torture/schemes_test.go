package torture

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hohtx/internal/arena"
	"hohtx/internal/reclaim"
	"hohtx/internal/stm"
)

// checkSchemeBooks runs the scripted mix of reclaim's TestRetireListBooks —
// retires, slot publications and clears, clock moves, brackets entered and
// left, Flushes — over the scheme build makes for two threads, and after
// every call checks it against what any scheme owes its caller, whatever
// its policy:
//
//   - each free is of a retiree, once;
//   - under a scheme whose Traits say Pins, a retiree that a slot published
//     while it was still linked is not freed while the slot holds it;
//   - Stats: Retired and Freed count the retires and frees, Deferred is
//     their difference and PeakDeferred its high-water mark, DelayOpsSum
//     sums the stamp distance at each free, Leftover never exceeds
//     Deferred, and a call that freed made a pass (Scans moved);
//   - a leaking scheme frees nothing; any other, once no slot is published
//     and no thread is inside a bracket, is drained by Traits.DrainRounds
//     Flushes of each thread: nothing deferred, nothing left over.
//
// Which retirees a pass frees, and in what order, is each policy's own:
// TestRetireListBooks models that for the schemes in internal/reclaim.
func checkSchemeBooks(t *testing.T, build func(reclaim.Nodes) reclaim.Scheme) {
	const threads = 2
	a := arena.New[struct{}](arena.Config{Threads: threads})
	rt := stm.NewRuntime(stm.Profile{})
	type retiree struct {
		op    uint64
		freed bool
	}
	var (
		retired  = map[arena.Handle]*retiree{}
		order    []arena.Handle  // every retiree, in retire order
		live     []arena.Handle  // allocated by tid 0, not yet retired
		pins     [2]arena.Handle // tid 1's slots that published a linked node
		inside   [threads]bool   // who is inside a bracket
		now      uint64          // the stamp of the call running
		retires  uint64          // the model's counters
		frees    uint64          //
		peak     uint64          //
		delays   uint64          //
		problems []string        // what a free broke, read after the call
		tr       reclaim.Traits  //
		pinned   = map[arena.Handle]bool{}
	)
	free := func(tid int, h arena.Handle) {
		switch r := retired[h]; {
		case r == nil:
			problems = append(problems, fmt.Sprintf("freed %v, which was never retired", h))
		case r.freed:
			problems = append(problems, fmt.Sprintf("freed %v twice", h))
		default:
			if tr.Pins && (pins[0] == h || pins[1] == h) {
				problems = append(problems, fmt.Sprintf("freed %v while a slot published before its retire holds it", h))
			}
			r.freed = true
			frees++
			delays += now - r.op
			a.Free(tid, h)
		}
	}
	s := build(reclaim.Nodes{
		Config: reclaim.Config{Threads: threads, ScanThreshold: 4},
		Live:   a.Live, Free: free, Runtime: rt,
	})
	tr = s.Traits()
	enter := func(tid int) { s.Enter(tid); inside[tid] = true }
	exit := func(tid int) { s.Exit(tid); inside[tid] = false }
	alloc := func() arena.Handle {
		h := a.Alloc(0)
		s.Born(h)
		return h
	}
	retire := func(h arena.Handle) {
		retired[h] = &retiree{op: now}
		order = append(order, h)
		retires++
		peak = max(peak, retires-frees)
		if pins[0] == h || pins[1] == h {
			pinned[h] = true
		}
		enter(0)
		s.Retire(0, h, now)
		exit(0)
	}
	check := func(what string, scans uint64, freedBefore uint64) {
		t.Helper()
		for _, p := range problems {
			t.Errorf("op %d (%s): %s", now, what, p)
		}
		problems = problems[:0]
		got := s.Stats()
		want := reclaim.Stats{Retired: retires, Freed: frees, Deferred: retires - frees, PeakDeferred: peak, DelayOpsSum: delays}
		if got.Retired != want.Retired || got.Freed != want.Freed || got.Deferred != want.Deferred ||
			got.PeakDeferred != want.PeakDeferred || got.DelayOpsSum != want.DelayOpsSum {
			t.Fatalf("op %d (%s): stats %+v, model %+v", now, what, got, want)
		}
		if got.Leftover > got.Deferred {
			t.Fatalf("op %d (%s): %d left over of %d deferred", now, what, got.Leftover, got.Deferred)
		}
		if got.Scans < scans || frees > freedBefore && got.Scans == scans {
			t.Fatalf("op %d (%s): scans %d -> %d with %d freed", now, what, scans, got.Scans, frees-freedBefore)
		}
		if tr.Leak && frees != 0 {
			t.Fatalf("op %d (%s): a leaking scheme freed %d", now, what, frees)
		}
	}

	heldPin := false // a pinned retiree outlived a call
	rng := rand.New(rand.NewSource(11))
	for now = 1; now <= 600; now++ {
		scans, freedBefore := s.Stats().Scans, frees
		var what string
		switch k := rng.Intn(10); {
		case k < 3:
			what = "tid 0 retires a new node"
			retire(alloc())
		case k < 5:
			what = "tid 0 links a new node"
			live = append(live, alloc())
		case k < 6 && len(live) > 0:
			what = "tid 0 retires a linked node: a published one if any"
			i := rng.Intn(len(live))
			if j := slices.Index(live, pins[rng.Intn(2)]); j >= 0 {
				i = j
			}
			h := live[i]
			live = slices.Delete(live, i, i+1)
			retire(h)
		case k < 7:
			what = "tid 1 publishes a slot"
			slot, h := rng.Intn(2), arena.Nil
			pins[slot] = arena.Nil
			switch r := rng.Intn(3); {
			case r == 0 && len(live) > 0:
				h = live[rng.Intn(len(live))]
				pins[slot] = h
			case r == 1 && len(order) > 0:
				h = order[rng.Intn(len(order))]
			}
			if got := s.Protect(1, slot, h); got != h {
				t.Fatalf("op %d: Protect returned %v, want %v", now, got, h)
			}
		case k < 8:
			what = "tid 1 clears its slots"
			s.ClearSlots(1)
			pins = [2]arena.Handle{}
		case k < 9:
			what = "the clock moves"
			rt.TickVersionFence()
			if inside[1] {
				exit(1)
			} else {
				enter(1)
			}
		default:
			what = "tid 0 flushes"
			s.Flush(0, now)
		}
		check(what, scans, freedBefore)
		for _, h := range pins {
			heldPin = heldPin || pinned[h] && !retired[h].freed
		}
	}
	if !tr.Leak && (frees == 0 || tr.Pins && !heldPin) {
		t.Fatalf("script too tame: %d freed, a pinned retiree held: %v", frees, heldPin)
	}

	s.ClearSlots(1)
	pins = [2]arena.Handle{}
	if inside[1] {
		exit(1)
	}
	for range max(tr.DrainRounds, 1) {
		for tid := range threads {
			scans, freedBefore := s.Stats().Scans, frees
			s.Flush(tid, now)
			check("drain", scans, freedBefore)
		}
	}
	if st := s.Stats(); !tr.Leak && st.Deferred+st.Leftover != 0 {
		t.Fatalf("drained: %d deferred, %d left over", st.Deferred, st.Leftover)
	}
}

// TestEverySchemeKeepsItsBooks runs checkSchemeBooks over every registered
// deferred scheme — reclaim's table, and the TMTOY and TMEBR this
// package's tests register, so a scheme registered next is checked without
// being named here — and over epochs and Leak, which no mode selects
// outside the singly linked list.
func TestEverySchemeKeepsItsBooks(t *testing.T) {
	builds := map[string]func(reclaim.Nodes) reclaim.Scheme{
		"Epochs": func(n reclaim.Nodes) reclaim.Scheme { return reclaim.NewEpochs(n.Threads, n.ScanThreshold, n.Free) },
		"Leak":   func(n reclaim.Nodes) reclaim.Scheme { return reclaim.NewLeak(n.Threads) },
	}
	for _, m := range reclaim.Modes() {
		if m > reclaim.ModeHTM && m.Generic() {
			builds[m.String()] = m.Scheme
		}
	}
	for _, name := range []string{"TMHP", "TMHE", "TMVBR", toyMode.String(), ebrMode.String()} {
		if builds[name] == nil {
			t.Fatalf("no registered scheme %s", name)
		}
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) { checkSchemeBooks(t, build) })
	}
}
