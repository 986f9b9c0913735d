package reclaim

import (
	"sync/atomic"

	"hohtx/internal/arena"
	"hohtx/internal/obs"
	"hohtx/internal/pad"
)

// DefaultScanThreshold is the retired-list length that triggers a hazard
// scan. The paper reports hazard-pointer performance is best when threads
// "only reclaim after 64 deletions" and uses that setting; so do we.
const DefaultScanThreshold = 64

// retiree is one logically deleted node awaiting a safe free.
type retiree struct {
	h     arena.Handle
	stamp uint64
}

// hpThread is one thread's hazard-pointer state.
type hpThread struct {
	slots   []atomic.Uint64 // published hazards (arena.Handle bits)
	retired []retiree
	_       pad.Line
}

// HazardPointers implements Michael's hazard-pointer scheme over arena
// handles. Each of Threads threads owns SlotsPerThread hazard slots.
type HazardPointers struct {
	observer
	threads   []hpThread
	stats     []threadStats
	free      FreeFunc
	threshold int
	perThread int
}

// HPConfig parameterizes NewHazardPointers.
type HPConfig struct {
	Threads        int // number of participating threads (required)
	SlotsPerThread int // hazard slots per thread; default 3
	ScanThreshold  int // retired-list length that triggers a scan; default 64
	Free           FreeFunc
}

// NewHazardPointers creates a hazard-pointer domain.
func NewHazardPointers(cfg HPConfig) *HazardPointers {
	if cfg.SlotsPerThread <= 0 {
		cfg.SlotsPerThread = 3
	}
	if cfg.ScanThreshold <= 0 {
		cfg.ScanThreshold = DefaultScanThreshold
	}
	hp := &HazardPointers{
		threads:   make([]hpThread, cfg.Threads),
		stats:     make([]threadStats, cfg.Threads),
		free:      cfg.Free,
		threshold: cfg.ScanThreshold,
		perThread: cfg.SlotsPerThread,
	}
	for i := range hp.threads {
		hp.threads[i].slots = make([]atomic.Uint64, cfg.SlotsPerThread)
	}
	return hp
}

// Enter and Exit implement Scheme: HazardPointers has no operation bracket.
func (hp *HazardPointers) Enter(int) {}
func (hp *HazardPointers) Exit(int)  {}

// Name implements Scheme.
func (hp *HazardPointers) Name() string { return "HP" }

// Traits implements Scheme.
func (hp *HazardPointers) Traits() Traits {
	return Traits{Deferred: true, DrainRounds: 2, StrandBound: true, Pins: true}
}

// Protect publishes h in the caller's hazard slot. Publication uses a
// sequentially consistent store, so any thread that subsequently scans is
// guaranteed to observe it (or the node was already unreachable when the
// caller re-validates).
func (hp *HazardPointers) Protect(tid, slot int, h arena.Handle) arena.Handle {
	hp.threads[tid].slots[slot].Store(uint64(h))
	return h
}

// ClearSlots implements Scheme.
func (hp *HazardPointers) ClearSlots(tid int) {
	t := &hp.threads[tid]
	for i := range t.slots {
		t.slots[i].Store(0)
	}
}

// Retire implements Scheme: h is queued and a scan runs once the thread
// has accumulated ScanThreshold retirements.
func (hp *HazardPointers) Retire(tid int, h arena.Handle, stamp uint64) {
	t := &hp.threads[tid]
	t.retired = append(t.retired, retiree{h: h, stamp: stamp})
	hp.stats[tid].noteRetire()
	hp.probe.Note(tid, obs.EvRetire, uint64(h))
	if len(t.retired) >= hp.threshold {
		hp.scan(tid, stamp)
	}
}

// Flush implements Scheme.
//
// A single scan is not enough at teardown: freeing one retiree can be what
// lets another thread's traversal move off a second retiree, and hazard
// slots published by threads that finished *after* this one may still cover
// entries in our list on the first pass. Rescanning until the retired list
// stops shrinking frees everything that can ever become free without
// further Retire traffic; whatever remains is still genuinely hazardous and
// shows up in Stats.Leftover for harnesses to assert on.
func (hp *HazardPointers) Flush(tid int, stamp uint64) {
	t := &hp.threads[tid]
	for len(t.retired) > 0 {
		before := len(t.retired)
		hp.scan(tid, stamp)
		if len(t.retired) == before {
			break
		}
	}
}

// scan frees every retired node no thread currently protects. This is the
// batched reclamation whose allocator interaction Figure 5 studies: up to
// ScanThreshold frees hit the allocator back to back.
func (hp *HazardPointers) scan(tid int, stamp uint64) {
	if sp := hp.reclaimSpan(tid); sp != nil {
		t0 := obs.Now()
		defer func() { sp.Add(obs.SpanReclaim, uint64(obs.Now()-t0)) }()
	}
	st := &hp.stats[tid]
	st.scans.Add(1)
	hazards := make(map[arena.Handle]struct{}, len(hp.threads)*hp.perThread)
	for i := range hp.threads {
		for j := range hp.threads[i].slots {
			if v := hp.threads[i].slots[j].Load(); v != 0 {
				hazards[arena.Handle(v)] = struct{}{}
			}
		}
	}
	t := &hp.threads[tid]
	kept := t.retired[:0]
	for _, r := range t.retired {
		if _, hazardous := hazards[r.h]; hazardous {
			kept = append(kept, r)
			continue
		}
		hp.free(tid, r.h)
		st.noteFree(stamp - r.stamp)
		hp.noteFreeEv(tid, stamp-r.stamp)
	}
	t.retired = kept
	st.leftover.Store(uint64(len(kept)))
}

// Stats implements Scheme.
func (hp *HazardPointers) Stats() Stats { return sumStats(hp.stats) }

var _ Scheme = (*HazardPointers)(nil)
