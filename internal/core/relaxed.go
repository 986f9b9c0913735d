package core

import (
	"hohtx/internal/pad"
	"hohtx/internal/stm"
)

// Relaxed implementations (§3.2). Get may return nil even though the
// thread's reference was never revoked — because an unrelated Revoke or
// Reserve collided under the hash — but it must never return a reference
// that *was* revoked. In exchange, Revoke is O(1) (XO, V) or O(A) (SO) and
// Reserve/Release touch little or no shared state.
//
// An important subtlety the paper leaves implicit: the per-thread R_t (and
// RR-V's V_t) must roll back if the enclosing transaction aborts. If an
// aborted Reserve left R_t pointing at r while the ownership write (or the
// counter it was paired with) never committed, a later Get could validate r
// against metadata published by an *older* reservation that hashes to the
// same slot, and return a reference the thread does not actually hold.
// Under HTM the rollback is automatic, because R_t is written
// transactionally — and it costs nothing shared, because no other core
// ever touches R_t's line.
//
// The slots here are stm.Local cells, which is that contract and no more:
// private to the owning tid, buffered in the transaction, applied at commit,
// discarded on abort. A Local is not in the read or write set, so R_t and
// V_t never make a transaction a writer. That is equivalent to keeping them
// in stm.Words because version locks, commit-time locking and validation
// only order accesses *between* threads, and only the owner ever reads or
// writes these slots (Revoke reaches other threads' reservations through
// the shared table, never through R_t); every cross-thread fact a Get
// relies on is still a transactional read of that table. What follows is
// the paper's cost model for RR-V: a window that only Gets and Reserves
// writes no shared state at all and commits read-only, at its snapshot. A
// Revoke that commits after that snapshot bumps the counter the next
// window's Get re-reads, and a reader that walks into a node freed
// mid-window is killed by the cell-version retire fence (stm.Word.Retire;
// DESIGN.md §7, "Thread-private reservation state and read-only windows").
// RR-XO/SO windows are writers regardless: their Reserve writes the
// ownership table.

// localSlot is a padded per-thread private word.
type localSlot struct {
	w stm.Local
	_ pad.Line
}

// ownTable is a hash-indexed array of transactional words, the shared
// metadata of XO/SO (thread ids + 1; 0 means "no owner", the paper's -1)
// and V (version counters). Its cells are not padded: the paper pads for
// HTM, which detects conflicts per cache line, but this STM detects them
// per Word, so cells sharing a line never conflict (DESIGN.md §7).
type ownTable struct {
	cells []stm.Word
	mask  uint64
}

func newOwnTable(tableBits int) *ownTable {
	n := 1 << tableBits
	return &ownTable{cells: make([]stm.Word, n), mask: uint64(n - 1)}
}

func (t *ownTable) at(ref uint64) *stm.Word {
	return &t.cells[hashRef(ref, t.mask)]
}

// SO is the shared-ownership relaxed scheme: A ownership tables, each
// thread assigned to one, so up to A threads can simultaneously hold a
// reservation on the same hash slot. Revoke writes "no owner" in all A
// tables.
//
// With one table it is RR-XO, the exclusive-ownership scheme (Listing 3).
// Reserving writes the caller's id over whatever was there, so at most one
// thread can hold a reservation on any given hash slot; a second Reserve
// acts like a Revoke of the first (progress, not correctness, is affected
// — §3.2).
type SO struct {
	tables []*ownTable
	rt     []localSlot // R_t: per-thread reserved reference
}

// newSO constructs an SO reservation with a tables.
func newSO(cfg Config, a int) Reservation {
	tables := make([]*ownTable, a)
	for i := range tables {
		tables[i] = newOwnTable(cfg.TableBits)
	}
	return &SO{tables: tables, rt: make([]localSlot, cfg.Threads)}
}

func (s *SO) table(tid int) *ownTable { return s.tables[tid%len(s.tables)] }

// Register implements Reservation (ids are the tids themselves).
func (s *SO) Register(tid int) {}

// Reserve implements Reservation.
func (s *SO) Reserve(tx *stm.Tx, tid int, ref uint64) {
	s.rt[tid].w.Store(tx, ref)
	s.table(tid).at(ref).Store(tx, uint64(tid)+1)
}

// Release implements Reservation. It touches only thread-local data: the
// ownership table entry is left behind and either reused by this thread's
// next Reserve or overwritten by someone else's.
func (s *SO) Release(tx *stm.Tx, tid int) {
	s.rt[tid].w.Store(tx, 0)
}

// Get implements Reservation.
func (s *SO) Get(tx *stm.Tx, tid int) uint64 {
	r := s.rt[tid].w.Load(tx)
	if r == 0 {
		return 0
	}
	if s.table(tid).at(r).Load(tx) == uint64(tid)+1 {
		return r
	}
	return 0
}

// Revoke implements Reservation: O(A) writes of "no owner", one with
// one table.
func (s *SO) Revoke(tx *stm.Tx, ref uint64) {
	for _, t := range s.tables {
		t.at(ref).Store(tx, 0)
	}
}

// V is the versioned relaxed scheme (Listing 4): the table holds counters
// that act like STM ownership-record versions. Reserve records the
// counter; Get checks it is unchanged; Revoke increments it. Any number of
// threads can reserve the same reference concurrently, and Reserve and
// Release write no shared state at all: R_t and V_t are thread-private
// (stm.Local), so a transaction that only Gets, Reserves and Releases is
// read-only — it takes no lock, does not advance the global clock and is
// not revalidated at commit. Only Revoke writes.
type V struct {
	vers *ownTable
	rt   []localSlot // R_t: reserved reference
	vt   []localSlot // V_t: counter observed at reserve time
}

// newV constructs an RR-V reservation.
func newV(cfg Config) Reservation {
	return &V{
		vers: newOwnTable(cfg.TableBits),
		rt:   make([]localSlot, cfg.Threads),
		vt:   make([]localSlot, cfg.Threads),
	}
}

// Register implements Reservation.
func (v *V) Register(tid int) {}

// Reserve implements Reservation: it reads (never writes) the shared
// counter, so concurrent Reserves of the same reference do not conflict.
func (v *V) Reserve(tx *stm.Tx, tid int, ref uint64) {
	v.rt[tid].w.Store(tx, ref)
	v.vt[tid].w.Store(tx, v.vers.at(ref).Load(tx))
}

// Release implements Reservation.
func (v *V) Release(tx *stm.Tx, tid int) {
	v.rt[tid].w.Store(tx, 0)
}

// Get implements Reservation.
func (v *V) Get(tx *stm.Tx, tid int) uint64 {
	r := v.rt[tid].w.Load(tx)
	if r == 0 {
		return 0
	}
	if v.vers.at(r).Load(tx) == v.vt[tid].w.Load(tx) {
		return r
	}
	return 0
}

// Revoke implements Reservation by bumping the reference's counter.
func (v *V) Revoke(tx *stm.Tx, ref uint64) {
	c := v.vers.at(ref)
	c.Store(tx, c.Load(tx)+1)
}
