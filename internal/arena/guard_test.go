package arena

import (
	"strings"
	"testing"
)

// guarded builds a small guarded arena over a two-word payload with the
// canonical PoisonWord poisoner.
type twoWords struct {
	a, b uint64
}

func newGuarded(check func(GuardEvent)) *Arena[twoWords] {
	ar := New[twoWords](Config{Threads: 4, Guard: true, AccessCheck: check})
	ar.SetPoison(func(v *twoWords) {
		v.a = PoisonWord
		v.b = PoisonWord
	})
	return ar
}

func TestGuardPoisonOnFree(t *testing.T) {
	ar := newGuarded(nil)
	h := ar.Alloc(0)
	v := ar.At(h)
	v.a, v.b = 7, 8
	ar.Free(0, h)
	if v.a != PoisonWord || v.b != PoisonWord {
		t.Fatalf("freed slot not poisoned: %#x %#x", v.a, v.b)
	}
	// Re-allocation hands the poisoned slot back; the owner re-initializes.
	h2 := ar.Alloc(0)
	if h2.Index() != h.Index() {
		t.Fatalf("expected slot reuse, got %v then %v", h, h2)
	}
	if ar.At(h2).a != PoisonWord {
		t.Fatalf("recycled slot lost its poison before re-init")
	}
}

func TestGuardOffNoPoison(t *testing.T) {
	ar := New[twoWords](Config{Threads: 2})
	if ar.Guarded() {
		t.Fatal("guard enabled without Config.Guard")
	}
	h := ar.Alloc(0)
	ar.At(h).a = 7
	ar.Free(0, h)
	if ar.At(h).a != 7 {
		t.Fatalf("unguarded free modified the slot payload")
	}
	if gs := ar.GuardStats(); gs != (GuardStats{}) {
		t.Fatalf("unguarded arena reported guard stats %+v", gs)
	}
	ar.NotePoisonRead(h) // must be a safe no-op
	ar.ReportUAF(0, h)   // likewise: no guard, no panic, no count
}

func TestGuardAuditTrail(t *testing.T) {
	ar := newGuarded(nil)
	h := ar.Alloc(1)
	ar.Free(2, h)
	// PolicyLocal parks the slot in tid 2's magazine, so tid 2 gets it back.
	h2 := ar.Alloc(2)
	if h2.Index() != h.Index() {
		t.Fatalf("expected slot reuse, got %v then %v", h, h2)
	}
	au := ar.Audit(h2)
	if au.LastAllocTid != 2 || au.LastFreeTid != 2 {
		t.Fatalf("audit tids = alloc %d / free %d, want 2 / 2", au.LastAllocTid, au.LastFreeTid)
	}
	if au.Allocs != 2 || au.Frees != 1 {
		t.Fatalf("audit counts = %d allocs / %d frees, want 2 / 1", au.Allocs, au.Frees)
	}
	if au.Gen&1 != 1 {
		t.Fatalf("audit gen %d not odd for a live slot", au.Gen)
	}
}

func TestGuardReportUAFPanicsWithoutSink(t *testing.T) {
	ar := newGuarded(nil)
	h := ar.Alloc(0)
	ar.Free(0, h)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("ReportUAF without an AccessCheck did not panic")
		}
		msg, _ := r.(string)
		if !strings.Contains(msg, "use-after-free") || !strings.Contains(msg, "last free by tid 0") {
			t.Fatalf("panic message lacks the audit trail: %v", r)
		}
	}()
	ar.ReportUAF(1, h)
}

func TestGuardReportUAFSink(t *testing.T) {
	var events []GuardEvent
	ar := newGuarded(func(ev GuardEvent) { events = append(events, ev) })
	h := ar.Alloc(2)
	ar.Free(3, h)
	ar.NotePoisonRead(h)
	ar.NotePoisonRead(h)
	ar.ReportUAF(1, h)
	if len(events) != 1 {
		t.Fatalf("sink received %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.H != h || ev.Tid != 1 || ev.Audit.LastFreeTid != 3 {
		t.Fatalf("event %+v does not describe the violation", ev)
	}
	gs := ar.GuardStats()
	if gs.PoisonReads != 2 || gs.Violations != 1 {
		t.Fatalf("guard stats %+v, want 2 poison reads and 1 violation", gs)
	}
}

// TestStatsLiveUnderflowClamp pins the signed-arithmetic fix: per-magazine
// counters are read racily, so a snapshot can observe a free before the
// alloc it balances. The unsigned subtraction this replaces reported a
// near-2^64 Live count.
func TestStatsLiveUnderflowClamp(t *testing.T) {
	ar := New[uint64](Config{Threads: 2})
	h := ar.Alloc(0)
	ar.Free(0, h)
	// Simulate the torn read: one extra free visible, its alloc not yet.
	ar.mags[1].frees.Add(1)
	if live := ar.Stats().Live; live != 0 {
		t.Fatalf("Live = %d under a torn counter read, want clamp to 0", live)
	}
	ar.mags[1].allocs.Add(1)
	if live := ar.Stats().Live; live != 0 {
		t.Fatalf("Live = %d once balanced, want 0", live)
	}
}

// TestBumpAllocExhaustionPanics pins the wraparound fix: handing out the
// final 32-bit index would wrap the bump pointer to 0 and silently alias
// page-0 slots on the next fresh allocation.
func TestBumpAllocExhaustionPanics(t *testing.T) {
	ar := New[uint64](Config{Threads: 1})
	ar.next.Store(^uint32(0))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("bumpAlloc at index-space exhaustion did not panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "exhausted") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	ar.bumpAlloc()
}

// TestGenerationWraparound walks a slot's generation across the 30-bit
// mask boundary and checks that handle/slot comparisons keep working
// (liveness checks and double-free detection compare through genMask).
func TestGenerationWraparound(t *testing.T) {
	ar := New[uint64](Config{Threads: 1})
	seedH := ar.Alloc(0)
	ar.Free(0, seedH) // park the slot in the magazine
	// Age the parked slot to the last even generation before the mask rolls.
	ar.slots.At(seedH.Index()).gen.Store(genMask - 1)

	h := ar.Alloc(0) // gen becomes genMask (odd: the final pre-wrap value)
	if h.Gen() != genMask {
		t.Fatalf("handle gen %#x, want %#x", h.Gen(), uint32(genMask))
	}
	if !ar.Live(h) {
		t.Fatal("handle at the mask boundary not Live")
	}
	ar.Free(0, h) // raw gen genMask+1: masked generation wraps to 0
	if ar.Live(h) {
		t.Fatal("freed boundary handle still Live")
	}
	h2 := ar.Alloc(0) // masked gen 1: first post-wrap live generation
	if h2.Index() != h.Index() || h2.Gen() != 1 {
		t.Fatalf("post-wrap handle %v, want index %d gen 1", h2, h.Index())
	}
	if !ar.Live(h2) || ar.Live(h) {
		t.Fatalf("post-wrap liveness wrong: Live(h2)=%v Live(h)=%v", ar.Live(h2), ar.Live(h))
	}
	// The pre-wrap handle is stale; freeing it must panic, not corrupt.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Free of pre-wrap stale handle did not panic")
			}
		}()
		ar.Free(0, h)
	}()
	ar.Free(0, h2)
}

// TestFreeBatchDoubleFreePanics: a retire batch containing the same handle
// twice, drained through Free one handle at a time as the reclaimers do,
// must trip the double-free check on the second occurrence.
func TestFreeBatchDoubleFreePanics(t *testing.T) {
	ar := New[uint64](Config{Threads: 1})
	h := ar.Alloc(0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("freeing a batch with a duplicate handle did not panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "double free") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	for _, x := range []Handle{h, h} {
		ar.Free(0, x)
	}
}
