package reclaim

import (
	"sync"
	"sync/atomic"

	"hohtx/internal/arena"
	"hohtx/internal/pad"
)

// eraPageSize is the birth-table page length; pages are allocated lazily
// as the arena grows, and never freed, so readers index without locks.
const eraPageSize = 1024

// eraTable records the birth era of every arena slot, indexed by
// Handle.Index. Slot reuse overwrites the entry (Born runs before
// the new node is published, and the old entry is dead by then: a slot
// is only reallocated after its previous incarnation was freed, which
// removed it from every retired list). Grow-only paged layout: the page
// vector is copy-on-grow behind an atomic pointer, so the read path (the
// sweep's interval test) is two loads and no locks.
type eraTable struct {
	mu    sync.Mutex
	pages atomic.Pointer[[]*[eraPageSize]atomic.Uint64]
}

func (t *eraTable) get(idx uint32) uint64 {
	pages := t.pages.Load()
	p := int(idx) / eraPageSize
	if pages == nil || p >= len(*pages) {
		return 0 // never stamped: treat as born at era 0 (conservative)
	}
	return (*pages)[p][int(idx)%eraPageSize].Load()
}

func (t *eraTable) set(idx uint32, era uint64) {
	p := int(idx) / eraPageSize
	pages := t.pages.Load()
	if pages == nil || p >= len(*pages) {
		t.grow(p)
		pages = t.pages.Load()
	}
	(*pages)[p][int(idx)%eraPageSize].Store(era)
}

func (t *eraTable) grow(p int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.pages.Load()
	n := 0
	if old != nil {
		n = len(*old)
	}
	if p < n {
		return // another grower got there first
	}
	grown := make([]*[eraPageSize]atomic.Uint64, p+1)
	if old != nil {
		copy(grown, *old)
	}
	for i := n; i <= p; i++ {
		grown[i] = new([eraPageSize]atomic.Uint64)
	}
	t.pages.Store(&grown)
}

// HazardEras implements the Hazard Eras scheme (Ramalhete & Correia,
// SPAA 2017 — see PAPERS.md): hazard-pointer-shaped reservations that
// publish an *era* instead of a pointer. A global era clock advances
// on every retirement; readers republish the current era in
// their slot at each protection point; each retiree carries its lifetime
// interval [birth era, delete era] and is freed once no published
// reservation falls inside that interval. One stale reservation
// therefore blocks only the nodes whose lifetime it intersects — nodes
// born after the stalled reader's era stay freeable, which is the
// robustness property separating HE from plain epochs (and the property
// the stalled-reader unit tests pin).
//
// Era reservations protect node *ranges*, not single nodes, so the
// structure-side protocol is exactly the hazard-pointer one (publish
// with an SC store, then transactionally re-check reachability): any
// scanner either observes the published era or the node was already
// unreachable when the reader re-validated. Birth eras live in a
// side table indexed by arena slot (eraTable) written by Born.
type HazardEras struct {
	retireList
	era       atomic.Uint64
	_         pad.Line
	birth     eraTable
	threshold int
}

// NewHazardEras creates a hazard-era domain.
func NewHazardEras(n Nodes) Scheme {
	he := &HazardEras{retireList: newRetireList(n.Threads, pairSlots, n.Free), threshold: n.scanThreshold()}
	he.era.Store(1) // era 0 means "empty reservation" in the slots
	return he
}

// Traits implements Scheme.
func (he *HazardEras) Traits() Traits { return Traits{Deferred: true, DrainRounds: 2, Pins: true} }

// Born implements Scheme: it records the current era as h's birth era.
// The seam calls it immediately after h is allocated, before the node is
// published (an aborted alloc leaves a stale entry; the slot's next
// incarnation restamps it). A slot that was never stamped reads birth 0,
// which every reservation's interval check treats as "alive since
// forever" (conservative: the node is only freed once no reservation at
// all covers eras <= its delete era).
func (he *HazardEras) Born(h arena.Handle) {
	he.birth.set(h.Index(), he.era.Load())
}

// Protect publishes the *current era* in the caller's slot and returns
// h; h == 0 clears the slot instead (the hazard-pointer calling
// convention for "drop this protection"). As with hazard pointers the
// store is sequentially consistent, so a scanner is guaranteed to
// observe the reservation — or the node was already retired when the
// caller re-validates, in which case its delete era precedes the
// published one and the reservation was never needed.
func (he *HazardEras) Protect(tid, slot int, h arena.Handle) arena.Handle {
	if h == 0 {
		he.threads[tid].slots[slot].Store(0)
		return h
	}
	he.threads[tid].slots[slot].Store(he.era.Load())
	return h
}

// Retire implements Scheme: h is queued with its delete era, the global
// era advances, and a scan runs once the thread has accumulated
// ScanThreshold retirements. Advancing on every retirement is Hazard Eras'
// canonical setting and the retire path's only shared write: it is what
// lets reader reservations go stale, so that retirees whose lifetime the
// stale eras do not intersect become freeable.
func (he *HazardEras) Retire(tid int, h arena.Handle, stamp uint64) {
	del := he.era.Load()
	t := he.retire(tid, h, stamp, del)
	he.era.CompareAndSwap(del, del+1)
	if len(t.list) >= he.threshold {
		he.sweep(tid, stamp, he.reserved)
	}
}

// Flush implements Scheme: rescan until the list stops shrinking.
func (he *HazardEras) Flush(tid int, stamp uint64) { he.rescan(tid, stamp, he.reserved) }

// reserved is the interval test: some published era falls inside r's
// lifetime [birth era, delete era], so a reader may still hold a reference
// from it. The birth era is read now, not at retirement: a retiree's slot
// cannot be reallocated (and restamped by Born) before a sweep frees it.
func (he *HazardEras) reserved(pub []uint64, r retiree) bool {
	birth := he.birth.get(r.h.Index())
	for _, e := range pub {
		if birth <= e && e <= r.stamp {
			return true
		}
	}
	return false
}
