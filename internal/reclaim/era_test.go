package reclaim

import (
	"sync"
	"testing"

	"hohtx/internal/arena"
)

// heHarness wires a HazardEras domain to a real arena so frees are
// observable, with a scan threshold high enough that reclamation only
// runs when a test flushes.
func heHarness(threads int) (*arena.Arena[node], *HazardEras) {
	a := arena.New[node](arena.Config{Threads: threads})
	he := NewHazardEras(nodesOf(threads, 1000, func(tid int, h arena.Handle) { a.Free(tid, h) }))
	return a, he.(*HazardEras)
}

// heAlloc allocates and birth-stamps a node the way structures do.
func heAlloc(a *arena.Arena[node], he *HazardEras, tid int) arena.Handle {
	h := a.Alloc(tid)
	he.Born(h)
	return h
}

func TestHEDefersWhileEraReserved(t *testing.T) {
	a, he := heHarness(2)
	h := heAlloc(a, he, 0)
	he.Protect(1, 0, h) // thread 1 reserves the current era
	he.Retire(0, h, 10) // delete era == reserved era: must defer
	he.Flush(0, 11)
	if !a.Live(h) {
		t.Fatal("node freed while its lifetime interval was reserved")
	}
	if st := he.Stats(); st.Deferred != 1 || st.Leftover != 1 {
		t.Fatalf("deferred=%d leftover=%d, want 1/1", st.Deferred, st.Leftover)
	}
	he.ClearSlots(1)
	he.Flush(0, 12)
	if a.Live(h) {
		t.Fatal("node survived Flush after the reservation cleared")
	}
	st := he.Stats()
	if st.Freed != 1 || st.Deferred != 0 || st.Leftover != 0 {
		t.Fatalf("stats after drain = %+v", st)
	}
	if st.DelayOpsSum != 2 {
		t.Fatalf("delay = %d, want 2 (stamp 12 - 10)", st.DelayOpsSum)
	}
}

// TestHEFlushExposesLeftover mirrors the HazardPointers.Flush stranding
// regression: a retiree whose interval stays reserved through the whole
// Flush is kept (correct) and must be visible in Stats.Leftover, and a
// free that clears a foreign reservation mid-Flush must un-strand the
// retirees that reservation covered (the rescan loop).
func TestHEFlushExposesLeftover(t *testing.T) {
	a, he := heHarness(2)
	hA := heAlloc(a, he, 0)
	he.Protect(1, 0, hA)    // reservation at era 1 covers hA's lifetime
	he.Retire(0, hA, 1)     // interval [1,1]; era advances to 2
	hB := heAlloc(a, he, 0) // born at era 2
	he.Retire(0, hB, 2)     // interval [2,2]

	he.Flush(0, 3)
	if a.Live(hB) {
		t.Fatal("retiree born after the stale reservation was not freed")
	}
	if !a.Live(hA) {
		t.Fatal("retiree was freed under a live era reservation")
	}
	if left := he.Stats().Leftover; left != 1 {
		t.Fatalf("Leftover = %d with one stranded retiree, want 1", left)
	}

	he.ClearSlots(1)
	he.Flush(0, 4)
	if a.Live(hA) {
		t.Fatal("retiree survived Flush after the reservation cleared")
	}
	if left := he.Stats().Leftover; left != 0 {
		t.Fatalf("Leftover = %d after full drain, want 0", left)
	}
}

// TestHEFlushRescansAfterReservationMoves is the era version of
// TestFlushRescansAfterHazardMoves: freeing one retiree clears the
// foreign reservation covering a second, and a single-scan Flush would
// strand that second node forever.
func TestHEFlushRescansAfterReservationMoves(t *testing.T) {
	a := arena.New[node](arena.Config{Threads: 2})
	var he *HazardEras
	var hA, hB arena.Handle
	he = NewHazardEras(nodesOf(2, 1000, func(tid int, h arena.Handle) {
		if h == hB {
			he.ClearSlots(1) // thread 1's traversal moves off A
		}
		a.Free(tid, h)
	})).(*HazardEras)
	hA = a.Alloc(0)
	he.Born(hA) // born era 1
	he.Protect(1, 0, hA)
	he.Retire(0, hA, 1) // [1,1], reserved; era -> 2
	hB = a.Alloc(0)
	he.Born(hB)         // born era 2
	he.Retire(0, hB, 2) // [2,2], unreserved

	he.Flush(0, 3)
	if a.Live(hA) || a.Live(hB) {
		t.Fatalf("Flush stranded retirees: Live(A)=%v Live(B)=%v", a.Live(hA), a.Live(hB))
	}
	st := he.Stats()
	if st.Deferred != 0 || st.Leftover != 0 {
		t.Fatalf("after full drain: deferred=%d leftover=%d, want 0/0", st.Deferred, st.Leftover)
	}
}

// TestHEBirthRestampOnReuse pins the birth-table reuse behavior behind
// the arena's wrapping {index, generation} handles: when a slot index
// is recycled, Born overwrites the birth entry, so an old-era
// reservation no longer covers the slot's new incarnation.
func TestHEBirthRestampOnReuse(t *testing.T) {
	a, he := heHarness(2)
	h1 := heAlloc(a, he, 0) // born era 1
	he.Protect(1, 0, h1)    // stale reservation at era 1
	he.Retire(0, h1, 1)     // era -> 2
	he.ClearSlots(1)
	he.Flush(0, 2) // frees h1; its slot index returns to the free list
	if a.Live(h1) {
		t.Fatal("setup: h1 not freed")
	}

	he.Protect(1, 0, arena.Handle(1)) // re-publish: reservation now at era 2
	old := he.era.Load()
	for he.era.Load() == old {
		// Advance the era so the next incarnation is born strictly later
		// than the published reservation.
		he.Retire(0, heAlloc(a, he, 0), 3)
	}
	he.ClearSlots(1)
	he.Flush(0, 3)

	he.Protect(1, 0, arena.Handle(1)) // park a reservation at the current era
	h2 := heAlloc(a, he, 0)           // may reuse h1's index; born at the reserved era
	if h2.Index() != h1.Index() {
		t.Logf("allocator did not reuse index %d (got %d); birth table still exercised", h1.Index(), h2.Index())
	}
	he.Retire(0, h2, 4) // interval [resEra, resEra+?]: must stay deferred
	he.Flush(0, 5)
	if !a.Live(h2) {
		t.Fatal("reused slot freed under a reservation covering its new birth era")
	}
	he.ClearSlots(1)
	he.Flush(0, 6)
	if a.Live(h2) {
		t.Fatal("reused slot survived the final drain")
	}
}

func TestHEConcurrentChurn(t *testing.T) {
	const workers = 4
	const iters = 3000
	a := arena.New[node](arena.Config{Threads: workers})
	he := NewHazardEras(nodesOf(workers, 16, func(tid int, h arena.Handle) { a.Free(tid, h) }))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h := a.Alloc(tid)
				he.Born(h)
				he.Protect(tid, 0, h)
				he.ClearSlots(tid)
				he.Retire(tid, h, uint64(i))
			}
			he.Flush(tid, iters)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		he.Flush(w, iters+1)
	}
	st := he.Stats()
	if st.Retired != workers*iters {
		t.Fatalf("retired = %d, want %d", st.Retired, workers*iters)
	}
	if st.Freed != st.Retired {
		t.Fatalf("freed = %d, retired = %d (leak after flush with no reservations)", st.Freed, st.Retired)
	}
	if got := a.Stats().Live; got != 0 {
		t.Fatalf("arena live = %d after full reclamation", got)
	}
}

// fakeClock is a test stand-in for the STM version fence.
type fakeClock struct{ v uint64 }

func (c *fakeClock) read() uint64 { return c.v }
func (c *fakeClock) tick()        { c.v += 2 }

// newFakeVBR builds VBR from n with clk in place of the runtime's fence.
func newFakeVBR(n Nodes, clk *fakeClock) *VBR {
	v := NewVBR(n).(*VBR)
	v.clock, v.tick = clk.read, clk.tick
	return v
}

func vbrHarness(threads int, clk *fakeClock) (*arena.Arena[node], *VBR) {
	a := arena.New[node](arena.Config{Threads: threads})
	return a, newFakeVBR(nodesOf(threads, 1000, func(tid int, h arena.Handle) { a.Free(tid, h) }), clk)
}

func TestVBRDefersUntilFenceAdvances(t *testing.T) {
	clk := &fakeClock{v: 100}
	a, v := vbrHarness(1, clk)
	h := a.Alloc(0)
	v.Retire(0, h, 10) // rv = 100; clock has not advanced past it
	if !a.Live(h) {
		t.Fatal("node freed in its retirement fence window")
	}
	if st := v.Stats(); st.Deferred != 1 {
		t.Fatalf("deferred = %d, want 1", st.Deferred)
	}
	clk.tick()
	v.Retire(0, a.Alloc(0), 11) // drain runs: 102 > 100 frees h
	if a.Live(h) {
		t.Fatal("node survived a fence advance past its retire version")
	}
	v.Flush(0, 12)
	st := v.Stats()
	if st.Freed != 2 || st.Deferred != 0 || st.Leftover != 0 {
		t.Fatalf("stats after flush = %+v", st)
	}
	if st.DelayOpsSum != 1+1 {
		t.Fatalf("delay sum = %d, want 2 (11-10 + 12-11)", st.DelayOpsSum)
	}
}

// TestVBRFlushDrainsCompletely pins the property the torture harness
// relies on (rounds=1, exact books after one FinishAll): Flush ticks
// the fence itself, so it always empties the pending queue.
func TestVBRFlushDrainsCompletely(t *testing.T) {
	clk := &fakeClock{v: 0}
	a, v := vbrHarness(1, clk)
	var hs []arena.Handle
	for i := 0; i < 50; i++ {
		h := a.Alloc(0)
		hs = append(hs, h)
		v.Retire(0, h, uint64(i))
	}
	v.Flush(0, 50)
	for _, h := range hs {
		if a.Live(h) {
			t.Fatal("retiree survived Flush")
		}
	}
	st := v.Stats()
	if st.Deferred != 0 || st.Leftover != 0 || st.Freed != 50 {
		t.Fatalf("stats after flush = %+v", st)
	}
}

// TestVBRClockWraparound pins the signed-difference ordering: retire
// versions taken just below the 64-bit boundary still drain once the
// clock wraps past zero.
func TestVBRClockWraparound(t *testing.T) {
	clk := &fakeClock{v: ^uint64(0) - 3}
	a, v := vbrHarness(1, clk)
	h := a.Alloc(0)
	v.Retire(0, h, 1) // rv = 2^64 - 4
	if !a.Live(h) {
		t.Fatal("node freed before the clock passed its retire version")
	}
	clk.tick() // 2^64 - 2
	clk.tick() // wraps to 0
	if clk.read() >= ^uint64(0)-3 {
		t.Fatalf("test setup: clock %d did not wrap", clk.read())
	}
	clk.tick()    // 2
	v.Flush(0, 2) // read unsigned, neither 2 nor the tick's 4 passes 2^64 - 4
	if a.Live(h) {
		t.Fatal("wrapped clock failed to free a pre-wrap retiree")
	}
	if st := v.Stats(); st.Deferred != 0 {
		t.Fatalf("deferred = %d after wraparound flush, want 0", st.Deferred)
	}
}

func TestVBRSelfTickBoundsDeferral(t *testing.T) {
	clk := &fakeClock{v: 0}
	a := arena.New[node](arena.Config{Threads: 1})
	v := newFakeVBR(nodesOf(1, 8, func(tid int, h arena.Handle) { a.Free(tid, h) }), clk)
	// No external writer advances the clock; the scheme must tick it
	// itself so deferral stays bounded by its tick cadence.
	for i := 0; i < 64; i++ {
		v.Retire(0, a.Alloc(0), uint64(i))
	}
	if st := v.Stats(); st.Deferred > 8 || st.Freed == 0 {
		t.Fatalf("self-tick failed to bound deferral: %+v", st)
	}
}

// TestStalledThreadDeferralBound is the robustness contract of
// DESIGN.md §14 in one test: with one reader stalled forever, plain
// epochs stop freeing anything, while hazard eras still free every node
// born after the stalled reservation and VBR (whose readers pin nothing)
// frees everything.
func TestStalledThreadDeferralBound(t *testing.T) {
	const churn = 40

	// Epochs: the stalled reader pins every subsequent retirement.
	ae := arena.New[node](arena.Config{Threads: 2})
	ep := NewEpochs(nodesOf(2, 1, func(tid int, h arena.Handle) { ae.Free(tid, h) }))
	ep.Enter(1) // stalled reader, never exits
	ep.Enter(0)
	for i := 0; i < churn; i++ {
		ep.Retire(0, ae.Alloc(0), uint64(i))
	}
	ep.Exit(0)
	ep.Flush(0, churn)
	if st := ep.Stats(); st.Freed != 0 || st.Deferred != churn {
		t.Fatalf("epochs under a stalled reader: %+v, want all %d deferred", st, churn)
	}

	// Hazard eras: the stalled reservation covers only the nodes whose
	// lifetime interval contains it; everything born later is freed.
	ah, he := heHarness(2)
	hold := heAlloc(ah, he, 0)
	he.Protect(1, 0, hold) // stalled: era reserved, never cleared
	he.Retire(0, hold, 0)  // the one node the reservation covers
	for i := 0; i < churn; i++ {
		he.Retire(0, heAlloc(ah, he, 0), uint64(i+1))
	}
	he.Flush(0, churn+1)
	st := he.Stats()
	if st.Freed != churn {
		t.Fatalf("hazard eras under a stalled reader: freed=%d of %d later-born nodes", st.Freed, churn)
	}
	if st.Deferred != 1 || st.Leftover != 1 || !ah.Live(hold) {
		t.Fatalf("hazard eras stranding not bounded to the covered node: %+v", st)
	}

	// VBR: a stalled reader publishes nothing; ticking the fence frees
	// every retiree.
	clk := &fakeClock{v: 0}
	av, vb := vbrHarness(2, clk)
	for i := 0; i < churn; i++ {
		vb.Retire(0, av.Alloc(0), uint64(i))
	}
	vb.Flush(0, churn)
	if st := vb.Stats(); st.Freed != churn || st.Deferred != 0 {
		t.Fatalf("vbr under a stalled reader: %+v, want all %d freed", st, churn)
	}
}
