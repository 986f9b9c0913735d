// Package arena provides the explicit node allocator that underpins this
// repository's "precise memory reclamation" claims.
//
// The paper's data structures are written in C++, where a removed node can
// be handed to free() the instant the removing transaction commits, and
// where touching freed memory is a real (and catastrophic) bug. Go's
// garbage collector erases both properties, so this package restores them
// synthetically:
//
//   - Nodes live in slab pages owned by an Arena. Alloc returns a Handle —
//     a {generation, index} pair — and Free makes the slot immediately
//     available for reuse. "Memory in use" is therefore an exact, observable
//     quantity (Stats.Live), and reclamation delay is measurable in
//     operations rather than being whenever the GC feels like it.
//
//   - Every Free bumps the slot's generation, so a stale Handle is
//     *detectable*: Live reports whether a handle still names the object it
//     was created for, double frees panic deterministically, and handles
//     embedding generations make compare-and-swap on handles ABA-safe for
//     the lock-free comparator structures.
//
// Dereferencing a stale handle through At is deliberately memory-safe (the
// slot always exists); the transactional layer above guarantees any value
// read through a stale handle can never commit, which mirrors how the
// paper's HTM aborts a reader whose node is concurrently reclaimed.
//
// Because slots are recycled, objects containing stm cells must only be
// re-initialized with transactional stores once they have ever been
// reachable: a plain (non-transactional) write to a recycled cell would
// bypass version management and could leak an inconsistent value into a
// doomed-but-running reader. Freshly bump-allocated slots (never shared)
// may use stm's Init.
//
// Two free-list policies reproduce the allocator sensitivity study in the
// paper's Figure 5:
//
//   - PolicyLocal (Hoard-like): per-thread magazines absorb frees and serve
//     allocations; only magazine overflow/underflow touches the shared pool,
//     in batches.
//
//   - PolicyShared (the jemalloc pathology stand-in): every allocation and
//     free takes the global pool lock, so batched deferred reclamation
//     (e.g. a hazard-pointer scan freeing 64 nodes at once) stalls every
//     other thread.
//
// The two differ in one number, not in code: a PolicyShared magazine holds
// nothing, so every free flushes its one index to the pool and every
// allocation refills from it.
package arena

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hohtx/internal/obs"
	"hohtx/internal/pad"
)

// Handle names an allocated slot. The zero Handle is "nil". Layout:
// bits 0..31 slot index, bits 32..61 generation (odd while live), bits
// 62..63 reserved for users (the lock-free structures pack mark/flag/tag
// bits there; the arena never sets them and rejects handles carrying them).
type Handle uint64

// Nil is the zero Handle.
const Nil Handle = 0

// UserBits is the mask of handle bits the arena leaves to its users.
const UserBits = uint64(3) << 62

const (
	idxBits   = 32
	idxMask   = (1 << idxBits) - 1
	genMask   = 0x3fffffff // 30 bits
	userBit   = UserBits
	genShift  = idxBits
	pageShift = 12 // 4096 slots per page
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// makeHandle packs an index and a (odd, live) generation.
func makeHandle(idx uint32, gen uint32) Handle {
	return Handle(uint64(gen&genMask)<<genShift | uint64(idx))
}

// Index returns the slot index the handle names.
func (h Handle) Index() uint32 { return uint32(h & idxMask) }

// Gen returns the generation the handle was created with.
func (h Handle) Gen() uint32 { return uint32(h>>genShift) & genMask }

// IsNil reports whether the handle is the nil handle.
func (h Handle) IsNil() bool { return h == Nil }

// String renders the handle for debugging.
func (h Handle) String() string {
	if h.IsNil() {
		return "hnil"
	}
	return fmt.Sprintf("h%d.g%d", h.Index(), h.Gen())
}

// Policy selects the free-list organization; see the package comment.
type Policy uint8

const (
	// PolicyLocal uses per-thread magazines with batched overflow to a
	// shared pool (Hoard-like).
	PolicyLocal Policy = iota
	// PolicyShared routes every allocation and free through one
	// lock-protected shared pool (the contended-allocator stand-in).
	PolicyShared
)

// String names the policy the way the paper's Figure 5 legend does:
// "H-" Hoard-like local magazines, "J-" the contended shared pool.
func (p Policy) String() string {
	switch p {
	case PolicyLocal:
		return "local(H)"
	case PolicyShared:
		return "shared(J)"
	default:
		return "unknown"
	}
}

// Config parameterizes an Arena.
type Config struct {
	// Policy selects the free-list organization. Default PolicyLocal.
	Policy Policy
	// Threads is the number of distinct thread ids that will call
	// Alloc/Free. Default 64.
	Threads int
	// MagazineSize caps a thread's private free list under PolicyLocal;
	// overflow flushes half to the shared pool. Default 128.
	MagazineSize int
	// Guard enables the use-after-free sanitizer: every Free overwrites
	// the slot payload with a sentinel (via Poison) and records a per-slot
	// audit trail (last alloc/free thread, transition counts), and the
	// arena accepts violation reports from the owning structure through
	// ReportUAF/AccessCheck. Off by default; when off, the only cost is
	// one predictable nil check in Alloc and Free.
	Guard bool
	// AccessCheck receives use-after-free violations reported via
	// ReportUAF: a committed transaction dereferenced a freed slot. Nil
	// means panic with the audit trail (the sanitizer's default). The
	// poison callback itself is generic over the slot type and therefore
	// installed separately, via Arena.SetPoison.
	AccessCheck func(GuardEvent)
}

type slot[T any] struct {
	gen atomic.Uint32 // odd = live, even = free; bumped on every transition
	val T
}

// Pages is a grow-only paged table indexed like the arena's slots: the
// arena's slots, its guard audit trail and hazard eras' birth eras are each
// one. Pages are never released or moved, which is what makes dereferencing
// stale handles memory-safe and lets readers index without locks. A page is
// an array, so a page pointer is already the address of its entry 0. Page 0
// is kept beside the vector, written once before the vector that publishes
// it: an entry on it is one load off the table, and only an entry on a
// later page takes the vector's three dependent loads (the vector's header,
// the page pointer, the entry). The zero Pages is empty.
type Pages[T any] struct {
	first *[pageSize]T
	vec   atomic.Pointer[[]*[pageSize]T]
	mu    sync.Mutex
}

// At returns entry i. Its page must exist: Has reported it, or the
// caller's own Grow made it.
func (p *Pages[T]) At(i uint32) *T {
	pg := p.first // loaded for every index: it is also p's nil check
	if i >= pageSize {
		pg = (*p.vec.Load())[i>>pageShift]
	}
	return &pg[i&pageMask]
}

// Has reports whether entry i's page exists.
func (p *Pages[T]) Has(i uint32) bool {
	v := p.vec.Load()
	return v != nil && int(i>>pageShift) < len(*v)
}

// Grow makes every page up to entry i's exist; pages another Grow made
// first are kept.
func (p *Pages[T]) Grow(i uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var cur []*[pageSize]T
	if v := p.vec.Load(); v != nil {
		cur = *v
	}
	if int(i>>pageShift) < len(cur) {
		return
	}
	next := make([]*[pageSize]T, i>>pageShift+1)
	copy(next, cur)
	for k := len(cur); k < len(next); k++ {
		next[k] = new([pageSize]T)
	}
	if cur == nil {
		p.first = next[0]
	}
	p.vec.Store(&next)
}

// PoisonWord is the sentinel guard-mode poisoners are expected to write
// into freed value words. Both reserved user bits are set, so it is never
// a valid arena handle, and it is far above the sets package's key range,
// so it is never a valid key — any committed read of it is evidence.
const PoisonWord uint64 = 0xDEADBEEFDEADBEEF

// slotAudit is the guard-mode per-slot audit trail (who touched the slot
// last, and how often it transitioned). Fields are atomics because Stats
// and violation reporters read them racily against the owning thread.
type slotAudit struct {
	lastAllocTid atomic.Int32
	lastFreeTid  atomic.Int32
	allocs       atomic.Uint32
	frees        atomic.Uint32
}

// SlotAudit is a point-in-time copy of a slot's guard audit trail.
type SlotAudit struct {
	LastAllocTid int32  // tid of the last Alloc that returned this slot
	LastFreeTid  int32  // tid of the last Free of this slot
	Allocs       uint32 // times the slot was handed out
	Frees        uint32 // times the slot was freed
	Gen          uint32 // current generation (odd = live)
}

// GuardEvent describes one use-after-free violation: a committed
// transaction on thread Tid dereferenced the slot named by H after it was
// freed.
type GuardEvent struct {
	H     Handle
	Tid   int
	Audit SlotAudit
}

// String renders the violation with its audit trail.
func (ev GuardEvent) String() string {
	return fmt.Sprintf(
		"use-after-free: tid %d committed a read of dead %v (slot gen %d, last alloc by tid %d, last free by tid %d, %d allocs / %d frees)",
		ev.Tid, ev.H, ev.Audit.Gen, ev.Audit.LastAllocTid, ev.Audit.LastFreeTid,
		ev.Audit.Allocs, ev.Audit.Frees)
}

// GuardStats counts guard-mode observations.
type GuardStats struct {
	// PoisonReads counts dereferences that observed a poisoned slot,
	// including the benign ones made by doomed transaction attempts that
	// subsequently aborted (see the package comment: such reads are
	// expected and harmless).
	PoisonReads uint64
	// Violations counts poison reads made by transactions that went on to
	// commit — true use-after-frees.
	Violations uint64
}

// Add accumulates o into s, field by field (several arenas' sanitizers as
// one aggregate). serve.TestStatsAddSumsEveryField fails on a numeric
// field this does not sum.
func (s *GuardStats) Add(o GuardStats) {
	s.PoisonReads += o.PoisonReads
	s.Violations += o.Violations
}

// guardState exists only when Config.Guard is set, so the disabled-mode
// cost is a nil check.
type guardState[T any] struct {
	audits      Pages[slotAudit] // grown before slots, so every slot has one
	poison      func(*T)
	accessCheck func(GuardEvent)
	poisonReads atomic.Uint64
	violations  atomic.Uint64
}

// magazine is a thread-private stack of free slot indices.
type magazine struct {
	free []uint32
	// Single-writer counters (the owning thread); read racily by Stats.
	allocs atomic.Uint64
	frees  atomic.Uint64
	_      pad.Line
}

// Arena is a slab allocator for values of type T. Methods taking a tid are
// safe for concurrent use as long as each concurrent caller passes a
// distinct tid in [0, Config.Threads).
type Arena[T any] struct {
	slots Pages[slot[T]]
	next  atomic.Uint32 // bump pointer for never-used slots
	_     pad.Line

	poolMu  sync.Mutex
	pool    []uint32 // shared free indices
	poolOps atomic.Uint64
	fresh   atomic.Uint64
	_       pad.Line
	mags    []magazine
	// A magazine past magCap flushes magFlush indices to the pool; an empty
	// one refills up to magFlush. PolicyShared's holds nothing (0 and 1).
	magCap   int
	magFlush int

	// retire, when installed (SetRetire), runs on every Free after the
	// generation bump and before the slot reaches any free list, with the
	// freeing tid. Owning structures use it to lift the versions of the
	// slot's transactional cells past the current clock, so that
	// transactions still holding pre-free snapshots abort instead of
	// reading the slot's next incarnation (see stm.Word.Retire), and to
	// free what the slot owns elsewhere (the skiplist's towers). Unlike the
	// guard poisoner it is not a debugging aid: it runs in every mode.
	retire func(tid int, v *T)

	guard *guardState[T] // nil unless Config.Guard
	obsv  *obs.TxProbe   // nil unless SetObserver attached a probe
}

// New creates an Arena with the given configuration.
func New[T any](cfg Config) *Arena[T] {
	if cfg.Threads <= 0 {
		cfg.Threads = 64
	}
	if cfg.MagazineSize <= 0 {
		cfg.MagazineSize = 128
	}
	a := &Arena[T]{
		mags:     make([]magazine, cfg.Threads),
		magCap:   cfg.MagazineSize,
		magFlush: cfg.MagazineSize / 2,
	}
	if cfg.Policy == PolicyShared {
		a.magCap, a.magFlush = 0, 1
	}
	if cfg.Guard {
		a.guard = &guardState[T]{accessCheck: cfg.AccessCheck}
		a.guard.audits.Grow(0)
	}
	a.slots.Grow(0)
	return a
}

// Guarded reports whether the use-after-free sanitizer is enabled.
func (a *Arena[T]) Guarded() bool { return a.guard != nil }

// SetPoison installs the guard-mode poisoner: f overwrites a freed slot's
// payload with a recognizable sentinel (typically PoisonWord in every value
// word, stored atomically via stm.Word.Poison so racing doomed readers stay
// race-detector clean). Call once, before any Free; a no-op unless
// Config.Guard was set.
func (a *Arena[T]) SetPoison(f func(*T)) {
	if a.guard != nil {
		a.guard.poison = f
	}
}

// SetRetire installs the free-time retire callback: f is invoked with the
// freeing tid for every freed slot while the slot is still unreachable
// (after the generation bump, before the index is pushed to a free list,
// and before the guard poisoner). Structures whose slots contain stm cells
// must install one that retires every cell's version (stm.Word.Retire);
// see that method for why recycling is unsound without it. Call once,
// before any Free.
func (a *Arena[T]) SetRetire(f func(tid int, v *T)) { a.retire = f }

// SetObserver attaches the structure's probe (nil detaches): every Free
// then logs a sampled flight event, which is where a postmortem reads when
// a slot went back. Wire it before the arena is shared.
func (a *Arena[T]) SetObserver(p *obs.TxProbe) { a.obsv = p }

// At returns the object named by h. It never fails for any handle ever
// returned by Alloc, even after the slot was freed or recycled (see the
// package comment); it panics only on the nil handle, a foreign index, or a
// handle carrying the user (mark) bit.
func (a *Arena[T]) At(h Handle) *T {
	if h.IsNil() {
		panic("arena: At(Nil)")
	}
	if uint64(h)&userBit != 0 {
		panic("arena: At on handle with user bit set; strip marks first")
	}
	return &a.slots.At(h.Index()).val
}

// Live reports whether h still names the allocation it was created by,
// i.e. the slot has not been freed (or freed and recycled) since.
func (a *Arena[T]) Live(h Handle) bool {
	if h.IsNil() || uint64(h)&userBit != 0 {
		return false
	}
	idx := h.Index()
	return a.slots.Has(idx) && a.slots.At(idx).gen.Load()&genMask == h.Gen()
}

// Alloc returns a handle to a slot that is exclusively owned by the caller
// until freed. The slot's contents are whatever the previous owner left
// (recycled slots must be re-initialized transactionally; see the package
// comment).
func (a *Arena[T]) Alloc(tid int) Handle {
	m := &a.mags[tid]
	m.allocs.Add(1)
	var idx uint32
	if len(m.free) > 0 || a.refill(m) {
		idx = m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
	} else {
		idx = a.bumpAlloc()
		a.fresh.Add(1)
	}
	s := a.slots.At(idx)
	g := s.gen.Load() // even (free)
	s.gen.Store(g + 1)
	if a.guard != nil {
		au := a.guard.audits.At(idx)
		au.lastAllocTid.Store(int32(tid))
		au.allocs.Add(1)
	}
	return makeHandle(idx, g+1)
}

// Free releases the slot named by h for immediate reuse. It panics if h is
// nil, stale, or being freed twice (the arena-level analog of a double
// free() aborting under a hardened allocator).
func (a *Arena[T]) Free(tid int, h Handle) {
	if h.IsNil() {
		panic("arena: Free(Nil)")
	}
	if uint64(h)&userBit != 0 {
		panic("arena: Free on handle with user bit set")
	}
	idx := h.Index()
	s := a.slots.At(idx)
	g := h.Gen()
	cur := s.gen.Load()
	if g&1 == 0 || cur&genMask != g || !s.gen.CompareAndSwap(cur, cur+1) {
		panic(fmt.Sprintf("arena: double free or stale handle %v", h))
	}
	if a.retire != nil {
		// Retire before poisoning: once the cell versions are lifted, no
		// pre-free snapshot can validate a read of the sentinel (or of the
		// slot's next incarnation) written below.
		a.retire(tid, &s.val)
	}
	if a.guard != nil {
		// The slot is free but not yet on any free list, so no other
		// thread can re-allocate it while we poison: the sentinel is in
		// place before the index becomes reachable again.
		au := a.guard.audits.At(idx)
		au.lastFreeTid.Store(int32(tid))
		au.frees.Add(1)
		if a.guard.poison != nil {
			a.guard.poison(&s.val)
		}
	}
	a.obsv.Note(tid, obs.EvFree, uint64(h))
	m := &a.mags[tid]
	m.frees.Add(1)
	m.free = append(m.free, idx)
	if len(m.free) > a.magCap {
		a.flush(m)
	}
}

// refill moves up to magFlush indices from the shared pool into m.
func (a *Arena[T]) refill(m *magazine) bool {
	a.poolMu.Lock()
	a.poolOps.Add(1)
	n := a.magFlush
	if n > len(a.pool) {
		n = len(a.pool)
	}
	if n > 0 {
		m.free = append(m.free, a.pool[len(a.pool)-n:]...)
		a.pool = a.pool[:len(a.pool)-n]
	}
	a.poolMu.Unlock()
	return n > 0
}

// flush moves magFlush indices from m to the shared pool.
func (a *Arena[T]) flush(m *magazine) {
	a.poolMu.Lock()
	a.poolOps.Add(1)
	cut := len(m.free) - a.magFlush
	a.pool = append(a.pool, m.free[cut:]...)
	a.poolMu.Unlock()
	m.free = m.free[:cut]
}

// bumpAlloc hands out a never-used slot index, growing the audit pages and
// then the slot pages as needed: an index is handed out only once its slot
// page exists, so its audit trail exists too. The index space is 32 bits;
// handing out the last index would wrap the bump pointer back to page 0 and
// silently alias live slots, so exhaustion panics instead (the final index,
// ^uint32(0), is sacrificed as the exhaustion sentinel).
func (a *Arena[T]) bumpAlloc() uint32 {
	for {
		n := a.next.Load()
		if n == ^uint32(0) {
			panic("arena: bump pointer exhausted the 32-bit slot index space; " +
				"wraparound would alias live slots (allocate fewer than 2^32 fresh slots, or recycle)")
		}
		if !a.slots.Has(n) {
			if a.guard != nil {
				a.guard.audits.Grow(n)
			}
			a.slots.Grow(n)
		} else if a.next.CompareAndSwap(n, n+1) {
			return n
		}
	}
}

// Audit returns a copy of the slot's guard audit trail. It panics unless
// guard mode is enabled.
func (a *Arena[T]) Audit(h Handle) SlotAudit {
	if a.guard == nil {
		panic("arena: Audit requires Config.Guard")
	}
	idx := h.Index()
	au := a.guard.audits.At(idx)
	return SlotAudit{
		LastAllocTid: au.lastAllocTid.Load(),
		LastFreeTid:  au.lastFreeTid.Load(),
		Allocs:       au.allocs.Load(),
		Frees:        au.frees.Load(),
		Gen:          a.slots.At(idx).gen.Load(),
	}
}

// NotePoisonRead records that a transaction attempt dereferenced a
// poisoned (freed) slot. Most such reads are benign: a doomed attempt read
// through a stale handle and will abort at validation. The owning
// structure calls ReportUAF only if the attempt goes on to commit.
func (a *Arena[T]) NotePoisonRead(h Handle) {
	if a.guard != nil {
		a.guard.poisonReads.Add(1)
	}
}

// ReportUAF reports a true use-after-free: a transaction on thread tid
// dereferenced the freed slot named by h and then committed. The event is
// counted and handed to Config.AccessCheck; with no AccessCheck installed
// it panics with the slot's audit trail.
func (a *Arena[T]) ReportUAF(tid int, h Handle) {
	if a.guard == nil {
		return
	}
	a.guard.violations.Add(1)
	ev := GuardEvent{H: h, Tid: tid, Audit: a.Audit(h)}
	if a.guard.accessCheck != nil {
		a.guard.accessCheck(ev)
		return
	}
	panic("arena: " + ev.String())
}

// GuardStats returns the sanitizer's counters (zero when guard is off).
func (a *Arena[T]) GuardStats() GuardStats {
	if a.guard == nil {
		return GuardStats{}
	}
	return GuardStats{
		PoisonReads: a.guard.poisonReads.Load(),
		Violations:  a.guard.violations.Load(),
	}
}

// Stats is a point-in-time snapshot of allocator activity.
type Stats struct {
	Allocs  uint64 // total allocations
	Frees   uint64 // total frees
	Live    uint64 // Allocs - Frees (clamped at 0): objects currently allocated
	Fresh   uint64 // allocations served by the bump pointer (new memory)
	PoolOps uint64 // shared-pool critical sections (contention proxy)
}

// Stats aggregates per-thread counters. Totals may lag concurrent activity
// by a few counts.
func (a *Arena[T]) Stats() Stats {
	var st Stats
	for i := range a.mags {
		st.Allocs += a.mags[i].allocs.Load()
		st.Frees += a.mags[i].frees.Load()
	}
	// The per-magazine counters are read racily: a free can be observed
	// before the alloc it balances, making Frees momentarily exceed
	// Allocs. Unsigned subtraction would then report a near-2^64 Live;
	// compute signed and clamp at zero instead.
	if live := int64(st.Allocs) - int64(st.Frees); live > 0 {
		st.Live = uint64(live)
	}
	st.Fresh = a.fresh.Load()
	st.PoolOps = a.poolOps.Load()
	return st
}
