package reclaim

import (
	"slices"

	"hohtx/internal/arena"
)

// DefaultScanThreshold is the retired-list length that triggers a hazard
// scan. The paper reports hazard-pointer performance is best when threads
// "only reclaim after 64 deletions" and uses that setting; so do we.
const DefaultScanThreshold = 64

// HazardPointers implements Michael's hazard-pointer scheme over arena
// handles. Each of Threads threads owns SlotsPerThread hazard slots.
type HazardPointers struct {
	retireList
	threshold int
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
	return &HazardPointers{
		retireList: newRetireList(cfg.Threads, cfg.SlotsPerThread, cfg.Free),
		threshold:  cfg.ScanThreshold,
	}
}

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

// Retire implements Scheme: h is queued and a scan runs once the thread
// has accumulated ScanThreshold retirements. The scan is the batched
// reclamation whose allocator interaction Figure 5 studies: up to
// ScanThreshold frees hit the allocator back to back.
func (hp *HazardPointers) Retire(tid int, h arena.Handle, stamp uint64) {
	if t := hp.retire(tid, h, stamp, 0); len(t.list) >= hp.threshold {
		hp.sweep(tid, stamp, hazardous)
	}
}

// Flush implements Scheme: rescan until the list stops shrinking.
func (hp *HazardPointers) Flush(tid int, stamp uint64) { hp.rescan(tid, stamp, hazardous) }

// hazardous is the hazard test: some thread publishes r's handle.
func hazardous(pub []uint64, r retiree) bool { return slices.Contains(pub, uint64(r.h)) }

var _ Scheme = (*HazardPointers)(nil)
