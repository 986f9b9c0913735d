package arena

import (
	"testing"

	"hohtx/internal/obs"
)

// TestFreeFlightEvent pins what the arena contributes to the flight
// recorder: one event per Free, carrying the freed handle and the freeing
// tid, and nothing for an Alloc, fresh or recycling.
func TestFreeFlightEvent(t *testing.T) {
	a := New[uint64](Config{Threads: 2, Policy: PolicyLocal})
	p := obs.NewDomain(obs.DomainConfig{Name: "arena-test", Threads: 2}).TxProbe()
	a.SetObserver(p)

	h := a.Alloc(0)
	a.Free(0, h)
	_ = a.Alloc(0) // reuses the slot (LIFO magazine)
	h2 := a.Alloc(1)
	a.Free(1, h2)

	ev := p.Rec.Events()
	if len(ev) != 2 {
		t.Fatalf("recorder saw %d events, want the 2 frees: %+v", len(ev), ev)
	}
	for i, want := range []struct {
		tid int32
		h   Handle
	}{{0, h}, {1, h2}} {
		if e := ev[i]; e.Kind != obs.EvFree || e.Tid != want.tid || Handle(e.Ref) != want.h {
			t.Fatalf("event %d = %+v, want free of %v by t%d", i, e, want.h, want.tid)
		}
	}
}

// TestObserverDisabledRecordsNothing checks the sampling-off path.
func TestObserverDisabledRecordsNothing(t *testing.T) {
	a := New[uint64](Config{Threads: 1})
	d := obs.NewDomain(obs.DomainConfig{Name: "arena-off", Threads: 1, SampleShift: -1})
	a.SetObserver(d.TxProbe())
	h := a.Alloc(0)
	a.Free(0, h)
	_ = a.Alloc(0)
	if s := d.Snapshot(); s.Events != 0 {
		t.Fatalf("disabled observer recorded %d events", s.Events)
	}
}
