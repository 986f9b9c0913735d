package core

import (
	"sync/atomic"

	"hohtx/internal/pad"
	"hohtx/internal/stm"
)

// Multi-reservation objects.
//
// The specification (§2, Listing 1) defines refs(t) as a *set* per thread;
// the single-reservation algorithms in strict.go and relaxed.go are the
// specialization the paper's data structures need. This file provides the
// set extension the paper describes for both families:
//
//   - strict (§3.1): "we would replace the value field with a set. Then
//     Reserve would append to the set, Release would remove an element from
//     the set, and Get would test the set for membership. Revoke would
//     remove from each thread's set, potentially increasing asymptotic
//     complexity."
//
//   - relaxed (§3.2): "To support multiple reservations per thread, R_t can
//     be replaced with a set. Since R_t is only accessed by thread t, this
//     does not introduce new concurrency challenges."
//
// Sets have a fixed capacity K chosen at construction; reserving into a
// full set panics (a data structure that needs k concurrent reservations
// sizes the object accordingly, exactly as it would size hazard-pointer
// slots).

// MultiReservation is the per-thread-set form of the revocable reservation
// object. All methods except Register must run inside a transaction.
type MultiReservation interface {
	// Register announces thread tid (idempotent; call before first use).
	Register(tid int)
	// Reserve adds ref to tid's set. It panics if the set is full and
	// ref is not already present.
	Reserve(tx *stm.Tx, tid int, ref uint64)
	// ReleaseRef removes ref from tid's set (no-op if absent).
	ReleaseRef(tx *stm.Tx, tid int, ref uint64)
	// ReleaseAll empties tid's set.
	ReleaseAll(tx *stm.Tx, tid int)
	// Get returns ref if it is in tid's set, else 0. Relaxed
	// implementations may return 0 spuriously but never return a revoked
	// reference.
	Get(tx *stm.Tx, tid int, ref uint64) uint64
	// Revoke removes ref from every thread's set.
	Revoke(tx *stm.Tx, ref uint64)
	// Capacity is K, the per-thread set capacity.
	Capacity() int
	// Strict reports whether Get is precise (see Reservation.Strict).
	Strict() bool
	// Name labels the implementation.
	Name() string
}

// multiSlots is a thread's fixed-capacity set of reserved references,
// stored in transactional cells (0 = empty slot).
type multiSlots struct {
	refs []stm.Word
	_    pad.Line
}

// find returns the index holding ref, or -1.
func (s *multiSlots) find(tx *stm.Tx, ref uint64) int {
	for i := range s.refs {
		if s.refs[i].Load(tx) == ref {
			return i
		}
	}
	return -1
}

// put stores ref in an empty slot (idempotent if already present).
func (s *multiSlots) put(tx *stm.Tx, ref uint64, name string) int {
	free := -1
	for i := range s.refs {
		switch s.refs[i].Load(tx) {
		case ref:
			return i
		case 0:
			if free < 0 {
				free = i
			}
		}
	}
	if free < 0 {
		panic(name + ": per-thread reservation set is full")
	}
	s.refs[free].Store(tx, ref)
	return free
}

func newMultiSlots(threads, capacity int) []multiSlots {
	out := make([]multiSlots, threads)
	for i := range out {
		out[i].refs = make([]stm.Word, capacity)
	}
	return out
}

// localSlots is the thread-private form of multiSlots, for sets that only
// their owner ever reads or writes (stm.Local cells; see the relaxed.go
// header for why that is enough).
type localSlots struct {
	refs []stm.Local
	_    pad.Line
}

// find returns the index holding ref, or -1.
func (s *localSlots) find(tx *stm.Tx, ref uint64) int {
	for i := range s.refs {
		if s.refs[i].Load(tx) == ref {
			return i
		}
	}
	return -1
}

func newLocalSlots(threads, capacity int) []localSlots {
	out := make([]localSlots, threads)
	for i := range out {
		out[i].refs = make([]stm.Local, capacity)
	}
	return out
}

// MultiFA is the set extension of RR-FA: Revoke scans every registered
// thread's whole set, so its cost grows to O(T·K).
type MultiFA struct {
	slots []multiSlots
	regs  []regFlag
	cap   int
}

// regFlag is read by concurrent Revoke scans while the owning thread may
// still be registering, so the flag must be atomic.
type regFlag struct {
	on atomic.Bool
	_  pad.Line
}

// NewMultiFA builds a strict multi-reservation object with per-thread
// capacity k.
func NewMultiFA(cfg Config, k int) *MultiFA {
	cfg = cfg.withDefaults()
	if k <= 0 {
		k = 4
	}
	return &MultiFA{
		slots: newMultiSlots(cfg.Threads, k),
		regs:  make([]regFlag, cfg.Threads),
		cap:   k,
	}
}

// Register implements MultiReservation.
func (m *MultiFA) Register(tid int) { m.regs[tid].on.Store(true) }

// Reserve implements MultiReservation.
func (m *MultiFA) Reserve(tx *stm.Tx, tid int, ref uint64) {
	m.slots[tid].put(tx, ref, m.Name())
}

// ReleaseRef implements MultiReservation.
func (m *MultiFA) ReleaseRef(tx *stm.Tx, tid int, ref uint64) {
	if i := m.slots[tid].find(tx, ref); i >= 0 {
		m.slots[tid].refs[i].Store(tx, 0)
	}
}

// ReleaseAll implements MultiReservation.
func (m *MultiFA) ReleaseAll(tx *stm.Tx, tid int) {
	for i := range m.slots[tid].refs {
		if m.slots[tid].refs[i].Load(tx) != 0 {
			m.slots[tid].refs[i].Store(tx, 0)
		}
	}
}

// Get implements MultiReservation.
func (m *MultiFA) Get(tx *stm.Tx, tid int, ref uint64) uint64 {
	if ref == 0 {
		return 0
	}
	if m.slots[tid].find(tx, ref) >= 0 {
		return ref
	}
	return 0
}

// Revoke implements MultiReservation: O(T·K) transactional reads, the
// strict family's growing revoke cost the paper warns about.
func (m *MultiFA) Revoke(tx *stm.Tx, ref uint64) {
	for t := range m.slots {
		if !m.regs[t].on.Load() {
			continue
		}
		if i := m.slots[t].find(tx, ref); i >= 0 {
			m.slots[t].refs[i].Store(tx, 0)
		}
	}
}

// Capacity implements MultiReservation.
func (m *MultiFA) Capacity() int { return m.cap }

// Strict implements MultiReservation.
func (m *MultiFA) Strict() bool { return true }

// Name implements MultiReservation.
func (m *MultiFA) Name() string { return "RR-FA/multi" }

// MultiV is the set extension of RR-V: per-thread parallel arrays of
// (reference, observed counter) pairs over the same shared version table.
// Revoke stays O(1); Get revalidates the counter recorded at reserve time.
// As in V, the per-thread arrays are thread-private, so only Revoke writes
// shared state.
type MultiV struct {
	vers *ownTable
	rt   []localSlots // reserved references
	vt   []localSlots // counters observed at reserve time
	cap  int
}

// NewMultiV builds a relaxed multi-reservation object with per-thread
// capacity k.
func NewMultiV(cfg Config, k int) *MultiV {
	cfg = cfg.withDefaults()
	if k <= 0 {
		k = 4
	}
	return &MultiV{
		vers: newOwnTable(cfg.TableBits),
		rt:   newLocalSlots(cfg.Threads, k),
		vt:   newLocalSlots(cfg.Threads, k),
		cap:  k,
	}
}

// Register implements MultiReservation.
func (m *MultiV) Register(tid int) {}

// Reserve implements MultiReservation: records (ref, V[hash(ref)]).
// Because Revoke never touches R_t, slots whose recorded counter no longer
// matches the table hold dead reservations; Reserve reclaims them lazily
// (a purely thread-local check), so capacity counts only live holds.
func (m *MultiV) Reserve(tx *stm.Tx, tid int, ref uint64) {
	rt, vt := &m.rt[tid], &m.vt[tid]
	free := -1
	for i := range rt.refs {
		cur := rt.refs[i].Load(tx)
		switch {
		case cur == ref:
			// Refresh the counter: a re-reserve revalidates.
			vt.refs[i].Store(tx, m.vers.at(ref).Load(tx))
			return
		case cur == 0:
			if free < 0 {
				free = i
			}
		default:
			if free < 0 && m.vers.at(cur).Load(tx) != vt.refs[i].Load(tx) {
				free = i // invalidated slot: reclaim
			}
		}
	}
	if free < 0 {
		panic(m.Name() + ": per-thread reservation set is full")
	}
	rt.refs[free].Store(tx, ref)
	vt.refs[free].Store(tx, m.vers.at(ref).Load(tx))
}

// ReleaseRef implements MultiReservation.
func (m *MultiV) ReleaseRef(tx *stm.Tx, tid int, ref uint64) {
	if i := m.rt[tid].find(tx, ref); i >= 0 {
		m.rt[tid].refs[i].Store(tx, 0)
	}
}

// ReleaseAll implements MultiReservation.
func (m *MultiV) ReleaseAll(tx *stm.Tx, tid int) {
	for i := range m.rt[tid].refs {
		if m.rt[tid].refs[i].Load(tx) != 0 {
			m.rt[tid].refs[i].Store(tx, 0)
		}
	}
}

// Get implements MultiReservation.
func (m *MultiV) Get(tx *stm.Tx, tid int, ref uint64) uint64 {
	if ref == 0 {
		return 0
	}
	i := m.rt[tid].find(tx, ref)
	if i < 0 {
		return 0
	}
	if m.vers.at(ref).Load(tx) == m.vt[tid].refs[i].Load(tx) {
		return ref
	}
	return 0
}

// Revoke implements MultiReservation: still a single counter bump.
func (m *MultiV) Revoke(tx *stm.Tx, ref uint64) {
	c := m.vers.at(ref)
	c.Store(tx, c.Load(tx)+1)
}

// Capacity implements MultiReservation.
func (m *MultiV) Capacity() int { return m.cap }

// Strict implements MultiReservation.
func (m *MultiV) Strict() bool { return false }

// Name implements MultiReservation.
func (m *MultiV) Name() string { return "RR-V/multi" }

var (
	_ MultiReservation = (*MultiFA)(nil)
	_ MultiReservation = (*MultiV)(nil)
)
