package reclaim

import (
	"sync"
	"sync/atomic"

	"hohtx/internal/arena"
	"hohtx/internal/obs"
	"hohtx/internal/pad"
)

// DefaultEraFreq is how many retirements pass between global-era
// advances. Hazard Eras increments its clock on (a fraction of)
// retirements so that reader reservations go stale and retirees whose
// lifetime the stale eras do not intersect become freeable; once per
// retirement is the canonical setting and the retire path's only shared
// write, so the scheme keeps it.
const DefaultEraFreq = 1

// heSlots is the era slots each thread publishes: the traversal's parity
// pair.
const heSlots = 2

// heRetiree is one logically deleted node stamped with its lifetime
// interval: the era it was allocated in and the era it was retired in.
type heRetiree struct {
	h     arena.Handle
	birth uint64
	del   uint64
	stamp uint64
}

// heThread is one thread's hazard-era state.
type heThread struct {
	slots        []atomic.Uint64 // published era reservations (0 = empty)
	retired      []heRetiree
	sinceAdvance int
	_            pad.Line
}

// eraPageSize is the birth-table page length; pages are allocated lazily
// as the arena grows, and never freed, so readers index without locks.
const eraPageSize = 1024

// eraTable records the birth era of every arena slot, indexed by
// Handle.Index. Slot reuse overwrites the entry (Born runs before
// the new node is published, and the old entry is dead by then: a slot
// is only reallocated after its previous incarnation was freed, which
// removed it from every retired list). Grow-only paged layout: the page
// vector is copy-on-grow behind an atomic pointer, so the hot read path
// (Retire) is two loads and no locks.
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
// every DefaultEraFreq retirements; readers republish the current era in
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
	observer
	era       atomic.Uint64
	_         pad.Line
	threads   []heThread
	stats     []threadStats
	birth     eraTable
	free      FreeFunc
	threshold int
}

// HEConfig parameterizes NewHazardEras.
type HEConfig struct {
	Threads       int // number of participating threads (required)
	ScanThreshold int // retired-list length that triggers a scan; default 64
	Free          FreeFunc
}

// NewHazardEras creates a hazard-era domain.
func NewHazardEras(cfg HEConfig) *HazardEras {
	if cfg.ScanThreshold <= 0 {
		cfg.ScanThreshold = DefaultScanThreshold
	}
	he := &HazardEras{
		threads:   make([]heThread, cfg.Threads),
		stats:     make([]threadStats, cfg.Threads),
		free:      cfg.Free,
		threshold: cfg.ScanThreshold,
	}
	he.era.Store(1) // era 0 means "empty reservation" in the slots
	for i := range he.threads {
		he.threads[i].slots = make([]atomic.Uint64, heSlots)
	}
	return he
}

// Enter and Exit implement Scheme: HazardEras has no operation bracket.
func (he *HazardEras) Enter(int) {}
func (he *HazardEras) Exit(int)  {}

// Name implements Scheme.
func (he *HazardEras) Name() string { return "HE" }

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

// ClearSlots implements Scheme.
func (he *HazardEras) ClearSlots(tid int) {
	t := &he.threads[tid]
	for i := range t.slots {
		t.slots[i].Store(0)
	}
}

// Retire implements Scheme: h is queued with its [birth, delete] era
// interval, the global era advances every DefaultEraFreq retirements, and
// a scan runs once the thread has accumulated ScanThreshold retirements.
func (he *HazardEras) Retire(tid int, h arena.Handle, stamp uint64) {
	t := &he.threads[tid]
	del := he.era.Load()
	t.retired = append(t.retired, heRetiree{
		h: h, birth: he.birth.get(h.Index()), del: del, stamp: stamp,
	})
	he.stats[tid].noteRetire()
	he.probe.Note(tid, obs.EvRetire, uint64(h))
	t.sinceAdvance++
	if t.sinceAdvance >= DefaultEraFreq {
		t.sinceAdvance = 0
		he.era.CompareAndSwap(del, del+1)
	}
	if len(t.retired) >= he.threshold {
		he.scan(tid, stamp)
	}
}

// Flush implements Scheme. Like HazardPointers.Flush it rescans until
// the retired list stops shrinking: freeing one retiree can be what
// lets another traversal move off its era (clearing the reservation
// that covered a second retiree), and this is the thread's final drain.
func (he *HazardEras) Flush(tid int, stamp uint64) {
	t := &he.threads[tid]
	for len(t.retired) > 0 {
		before := len(t.retired)
		he.scan(tid, stamp)
		if len(t.retired) == before {
			break
		}
	}
}

// scan frees every retiree whose lifetime interval contains no
// published era reservation.
func (he *HazardEras) scan(tid int, stamp uint64) {
	if sp := he.reclaimSpan(tid); sp != nil {
		t0 := obs.Now()
		defer func() { sp.Add(obs.SpanReclaim, uint64(obs.Now()-t0)) }()
	}
	st := &he.stats[tid]
	st.scans.Add(1)
	reserved := make([]uint64, 0, len(he.threads)*heSlots)
	for i := range he.threads {
		for j := range he.threads[i].slots {
			if e := he.threads[i].slots[j].Load(); e != 0 {
				reserved = append(reserved, e)
			}
		}
	}
	t := &he.threads[tid]
	kept := t.retired[:0]
	for _, r := range t.retired {
		if intervalReserved(reserved, r.birth, r.del) {
			kept = append(kept, r)
			continue
		}
		he.free(tid, r.h)
		st.noteFree(stamp - r.stamp)
		he.noteFreeEv(tid, stamp-r.stamp)
	}
	t.retired = kept
	st.leftover.Store(uint64(len(kept)))
}

// intervalReserved reports whether any published era falls inside
// [birth, del] — i.e. some reader may still hold a reference from the
// retiree's lifetime.
func intervalReserved(reserved []uint64, birth, del uint64) bool {
	for _, e := range reserved {
		if birth <= e && e <= del {
			return true
		}
	}
	return false
}

// Stats implements Scheme.
func (he *HazardEras) Stats() Stats { return sumStats(he.stats) }

var _ Scheme = (*HazardEras)(nil)
