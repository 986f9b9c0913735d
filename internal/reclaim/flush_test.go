package reclaim

import (
	"strings"
	"testing"

	"hohtx/internal/arena"
)

// TestFlushRescansAfterHazardMoves pins the Flush re-scan fix. Freeing one
// retiree can be exactly what lets a traversal move off a second retiree
// (modeled here by a FreeFunc that clears the foreign hazard): a
// single-scan Flush stranded the second node forever, because Flush is the
// thread's final drain.
func TestFlushRescansAfterHazardMoves(t *testing.T) {
	a := arena.New[node](arena.Config{Threads: 2})
	var hp *HazardPointers
	var hA, hB arena.Handle
	hp = NewHazardPointers(HPConfig{
		Threads: 2, ScanThreshold: 100,
		Free: func(tid int, h arena.Handle) {
			if h == hA {
				hp.ClearSlots(1) // thread 1's traversal moves off B
			}
			a.Free(tid, h)
		},
	})
	hA, hB = a.Alloc(0), a.Alloc(0)
	hp.Protect(1, 0, hB)
	hp.Retire(0, hA, 1)
	hp.Retire(0, hB, 2)

	hp.Flush(0, 3)

	if a.Live(hA) || a.Live(hB) {
		t.Fatalf("Flush stranded retirees: Live(A)=%v Live(B)=%v", a.Live(hA), a.Live(hB))
	}
	st := hp.Stats()
	if st.Deferred != 0 || st.Leftover != 0 {
		t.Fatalf("after full drain: deferred=%d leftover=%d, want 0/0", st.Deferred, st.Leftover)
	}
}

// TestFlushExposesLeftover: a retiree that stays hazardous through the
// whole Flush is kept (correct) and must be visible in Stats.Leftover so
// harnesses can assert the stranding is bounded.
func TestFlushExposesLeftover(t *testing.T) {
	a, s := newHarness(2, func(f FreeFunc) Scheme {
		return NewHazardPointers(HPConfig{Threads: 2, ScanThreshold: 100, Free: f})
	})
	hA, hB := a.Alloc(0), a.Alloc(0)
	s.Protect(1, 0, hB)
	s.Retire(0, hA, 1)
	s.Retire(0, hB, 2)

	s.Flush(0, 3)
	if a.Live(hA) {
		t.Fatal("unprotected retiree survived Flush")
	}
	if !a.Live(hB) {
		t.Fatal("hazardous retiree was freed under a live hazard")
	}
	if left := s.Stats().Leftover; left != 1 {
		t.Fatalf("Leftover = %d with one stranded retiree, want 1", left)
	}

	s.ClearSlots(1)
	s.Flush(0, 4)
	if a.Live(hB) {
		t.Fatal("retiree survived Flush after the hazard cleared")
	}
	if left := s.Stats().Leftover; left != 0 {
		t.Fatalf("Leftover = %d after full drain, want 0", left)
	}
}

// TestEpochRetireBracketGuard pins the guard-mode assertion: a Retire
// outside an Enter/Exit bracket looks quiescent to the epoch advancer, so
// the retiree can be freed under a concurrent reader. With Guard set this
// must panic; without it the (legacy, unchecked) behavior stands.
func TestEpochRetireBracketGuard(t *testing.T) {
	a := arena.New[node](arena.Config{Threads: 2})
	n := nodesOf(2, 1, func(tid int, h arena.Handle) { a.Free(tid, h) })
	n.Config.Guard = true
	e := NewEpochs(n).(*Epochs)

	e.Enter(0)
	e.Retire(0, a.Alloc(0), 1) // bracketed: fine
	e.Exit(0)

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("unbracketed Retire did not panic with Guard set")
			}
			if msg, _ := r.(string); !strings.Contains(msg, "Enter/Exit bracket") {
				t.Fatalf("unexpected panic: %v", r)
			}
		}()
		e.Retire(0, a.Alloc(0), 2)
	}()

	e.guard = false
	e.Retire(0, a.Alloc(0), 3) // unguarded: tolerated for compatibility
}
