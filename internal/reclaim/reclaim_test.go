package reclaim

import (
	"sync"
	"testing"

	"hohtx/internal/arena"
)

type node struct{ v uint64 }

// harness wires a scheme to a real arena so frees are observable.
func newHarness(threads int, mk func(free FreeFunc) Scheme) (*arena.Arena[node], Scheme) {
	a := arena.New[node](arena.Config{Threads: threads})
	s := mk(func(tid int, h arena.Handle) { a.Free(tid, h) })
	return a, s
}

func TestHPDefersWhileProtected(t *testing.T) {
	a, s := newHarness(2, func(f FreeFunc) Scheme {
		return NewHazardPointers(HPConfig{Threads: 2, ScanThreshold: 1, Free: f})
	})
	h := a.Alloc(0)
	s.Protect(1, 0, h) // thread 1 holds a hazard on h
	s.Retire(0, h, 10) // threshold 1: scan runs immediately
	if !a.Live(h) {
		t.Fatal("protected node was freed")
	}
	st := s.Stats()
	if st.Deferred != 1 {
		t.Fatalf("deferred = %d, want 1", st.Deferred)
	}
	s.ClearSlots(1)
	s.Flush(0, 12)
	if a.Live(h) {
		t.Fatal("unprotected node survived flush")
	}
	st = s.Stats()
	if st.Freed != 1 || st.Deferred != 0 {
		t.Fatalf("stats after flush = %+v", st)
	}
	if st.DelayOpsSum != 2 {
		t.Fatalf("delay = %d, want 2 (stamp 12 - 10)", st.DelayOpsSum)
	}
}

func TestHPBatchesAtThreshold(t *testing.T) {
	a, s := newHarness(1, func(f FreeFunc) Scheme {
		return NewHazardPointers(HPConfig{Threads: 1, ScanThreshold: 8, Free: f})
	})
	var hs []arena.Handle
	for i := 0; i < 7; i++ {
		h := a.Alloc(0)
		hs = append(hs, h)
		s.Retire(0, h, uint64(i))
	}
	if s.Stats().Freed != 0 {
		t.Fatal("scan ran before threshold")
	}
	h := a.Alloc(0)
	s.Retire(0, h, 7) // 8th retirement triggers the scan
	st := s.Stats()
	if st.Freed != 8 || st.Scans != 1 {
		t.Fatalf("after threshold: %+v", st)
	}
	for _, h := range hs {
		if a.Live(h) {
			t.Fatal("retired node survived scan with no hazards")
		}
	}
	if st.PeakDeferred != 8 {
		t.Fatalf("peak deferred = %d, want 8", st.PeakDeferred)
	}
}

func TestHPConcurrentChurn(t *testing.T) {
	const workers = 4
	const iters = 3000
	a, s := newHarness(workers, func(f FreeFunc) Scheme {
		return NewHazardPointers(HPConfig{Threads: workers, ScanThreshold: 16, Free: f})
	})
	// Each worker allocates, publishes a hazard briefly, retires its own
	// nodes. The scheme must never free a slot twice (arena panics) and
	// books must balance after flush.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h := a.Alloc(tid)
				s.Protect(tid, 0, h)
				s.ClearSlots(tid)
				s.Retire(tid, h, uint64(i))
			}
			s.Flush(tid, iters)
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Retired != workers*iters {
		t.Fatalf("retired = %d, want %d", st.Retired, workers*iters)
	}
	if st.Freed != st.Retired {
		t.Fatalf("freed = %d, retired = %d (leak after flush with no hazards)", st.Freed, st.Retired)
	}
	if got := a.Stats().Live; got != 0 {
		t.Fatalf("arena live = %d after full reclamation", got)
	}
}

func TestEpochsBasicLifecycle(t *testing.T) {
	a, _ := newHarness(2, func(f FreeFunc) Scheme { return NewLeak(2) })
	e := NewEpochs(2, 1, func(tid int, h arena.Handle) { a.Free(tid, h) })

	e.Enter(0)
	h := a.Alloc(0)
	e.Retire(0, h, 1)
	e.Exit(0)
	if !a.Live(h) {
		// Freeing instantly would be wrong: epoch must advance twice.
		t.Fatal("node freed in its retirement epoch")
	}
	// With all threads quiescent, flush can advance and drain.
	e.Flush(0, 5)
	if a.Live(h) {
		t.Fatal("node survived epoch flush with all threads quiescent")
	}
}

func TestEpochsPinnedByActiveReader(t *testing.T) {
	a, _ := newHarness(2, func(f FreeFunc) Scheme { return NewLeak(2) })
	e := NewEpochs(2, 1, func(tid int, h arena.Handle) { a.Free(tid, h) })

	e.Enter(1) // thread 1 is a long-running reader in epoch g
	e.Enter(0)
	h := a.Alloc(0)
	e.Retire(0, h, 1)
	e.Exit(0)
	e.Flush(0, 2)
	if a.Live(h) == false {
		t.Fatal("node freed while a reader from its epoch is still active")
	}
	if e.Stats().Deferred != 1 {
		t.Fatalf("deferred = %d, want 1", e.Stats().Deferred)
	}
	e.Exit(1)
	e.Flush(0, 3)
	if a.Live(h) {
		t.Fatal("node survived after the pinning reader exited")
	}
}

func TestEpochsConcurrent(t *testing.T) {
	const workers = 4
	const iters = 2000
	a := arena.New[node](arena.Config{Threads: workers})
	e := NewEpochs(workers, 8, func(tid int, h arena.Handle) { a.Free(tid, h) })
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e.Enter(tid)
				h := a.Alloc(tid)
				e.Retire(tid, h, uint64(i))
				e.Exit(tid)
			}
			e.Flush(tid, iters)
		}(w)
	}
	wg.Wait()
	// All threads quiescent: one more flush per thread drains everything.
	for w := 0; w < workers; w++ {
		e.Flush(w, iters+1)
	}
	st := e.Stats()
	if st.Retired != workers*iters {
		t.Fatalf("retired = %d", st.Retired)
	}
	if st.Deferred != 0 {
		t.Fatalf("deferred = %d after global quiescence, want 0", st.Deferred)
	}
	if a.Stats().Live != 0 {
		t.Fatalf("arena live = %d", a.Stats().Live)
	}
}

func TestLeakNeverFrees(t *testing.T) {
	a, s := newHarness(1, func(f FreeFunc) Scheme { return NewLeak(1) })
	h := a.Alloc(0)
	s.Retire(0, h, 1)
	s.Flush(0, 2)
	if !a.Live(h) {
		t.Fatal("Leak freed a node")
	}
	st := s.Stats()
	if st.Retired != 1 || st.Freed != 0 || st.Deferred != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStatsAvgDelay(t *testing.T) {
	s := Stats{Freed: 4, DelayOpsSum: 8}
	if got := s.AvgDelayOps(); got != 2 {
		t.Fatalf("AvgDelayOps = %v, want 2", got)
	}
	if (Stats{}).AvgDelayOps() != 0 {
		t.Fatal("zero stats should have zero delay")
	}
}
