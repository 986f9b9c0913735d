package core

import (
	"sync/atomic"

	"hohtx/internal/pad"
	"hohtx/internal/stm"
)

// Strict implementations (§3.1). These adhere exactly to the Listing 1
// specification: Get returns nil only if the thread's reference was
// released or revoked. Their Revoke must visit every location that might
// hold the reference, which costs O(T) (FA, and DM when every thread
// shares ref's bucket) or O(A+T) (SA) and — more importantly for performance — conflicts with
// any concurrent Reserve or Release it reads past.

// faSlot is one thread's reservation cell, padded so that Reserve/Release/
// Get by different threads never share a cache line (the paper calls this
// out explicitly for RR-FA).
type faSlot struct {
	val        stm.Word
	registered atomic.Bool
	_          pad.Line
}

// FA is the fully associative scheme (Listing 2): one slot per thread, and
// Revoke scans all registered slots. The paper organizes the slots as a
// linked list a thread appends to at registration; a fixed slot array with
// a registered flag is the same object with the same conflict behavior
// (Revoke transactionally reads every registered thread's slot) and one
// less pointer hop.
type FA struct {
	slots []faSlot
}

// newFA constructs an RR-FA reservation.
func newFA(cfg Config) Reservation {
	return &FA{slots: make([]faSlot, cfg.Threads)}
}

// Register implements Reservation.
func (f *FA) Register(tid int) { f.slots[tid].registered.Store(true) }

// Reserve implements Reservation.
func (f *FA) Reserve(tx *stm.Tx, tid int, ref uint64) {
	f.slots[tid].val.Store(tx, ref)
}

// Release implements Reservation.
func (f *FA) Release(tx *stm.Tx, tid int) {
	f.slots[tid].val.Store(tx, 0)
}

// Get implements Reservation.
func (f *FA) Get(tx *stm.Tx, tid int) uint64 {
	return f.slots[tid].val.Load(tx)
}

// Revoke implements Reservation: it transactionally reads every registered
// thread's slot and clears those holding ref. Those reads are what make a
// concurrent Reserve/Release by any thread a conflict for the revoker.
func (f *FA) Revoke(tx *stm.Tx, ref uint64) {
	for i := range f.slots {
		if !f.slots[i].registered.Load() {
			continue
		}
		if f.slots[i].val.Load(tx) == ref {
			f.slots[i].val.Store(tx, 0)
		}
	}
}

// dmNode is one entry of a dmArray: thread nodes at indices [0,T), bucket
// sentinels at [T, T+B). Links are 1-based entry indices; 0 is nil. where
// is 1+bucket for a linked thread node, 0 when unlinked. Its four words are
// exactly one cache line, so on a line-aligned array each entry has a line
// to itself without a pad (at the default TableBits the array is ~1 MiB,
// which the allocator page-aligns; TestReservationFootprint checks both).
type dmNode struct {
	val   stm.Word
	prev  stm.Word
	next  stm.Word
	where stm.Word
}

// dmArray is one hash-indexed array of unsorted doubly linked bucket lists,
// the building block of SA: RR-SA has A of them, RR-DM one. Each
// bucket owns a sentinel node so that inserts and removes deep in a bucket
// do not conflict with operations near the array itself (the contention
// note in §3.1).
type dmArray struct {
	entries []dmNode
	threads int
	mask    uint64
}

func newDMArray(threads, tableBits int) *dmArray {
	buckets := 1 << tableBits
	return &dmArray{
		entries: make([]dmNode, threads+buckets),
		threads: threads,
		mask:    uint64(buckets - 1),
	}
}

// sentinel returns the entry index of bucket b's sentinel.
func (d *dmArray) sentinel(b uint64) int { return d.threads + int(b) }

// insert links thread t's node at the head of bucket b.
func (d *dmArray) insert(tx *stm.Tx, t int, b uint64) {
	s := d.sentinel(b)
	n := &d.entries[t]
	first := d.entries[s].next.Load(tx)
	n.next.Store(tx, first)
	n.prev.Store(tx, uint64(s+1))
	if first != 0 {
		d.entries[first-1].prev.Store(tx, uint64(t+1))
	}
	d.entries[s].next.Store(tx, uint64(t+1))
	n.where.Store(tx, b+1)
}

// remove unlinks thread t's node from whatever bucket holds it.
func (d *dmArray) remove(tx *stm.Tx, t int) {
	n := &d.entries[t]
	p := n.prev.Load(tx)
	nx := n.next.Load(tx)
	d.entries[p-1].next.Store(tx, nx)
	if nx != 0 {
		d.entries[nx-1].prev.Store(tx, p)
	}
	n.where.Store(tx, 0)
}

// reserve implements SA's Reserve for thread t: set the value, then
// make sure the node is linked in the bucket ref hashes to. Removal from a
// previously occupied bucket was deliberately deferred by Release (the
// contention-avoiding optimization in §3.1), so it may happen here.
func (d *dmArray) reserve(tx *stm.Tx, t int, ref uint64) {
	b := hashRef(ref, d.mask)
	n := &d.entries[t]
	n.val.Store(tx, ref)
	w := n.where.Load(tx)
	if w == b+1 {
		return // already in the right bucket (lazy removal paid off)
	}
	if w != 0 {
		d.remove(tx, t)
	}
	d.insert(tx, t, b)
}

// revoke walks the bucket ref hashes to and clears every node holding ref.
func (d *dmArray) revoke(tx *stm.Tx, ref uint64) {
	b := hashRef(ref, d.mask)
	cur := d.entries[d.sentinel(b)].next.Load(tx)
	for cur != 0 {
		n := &d.entries[cur-1]
		if n.val.Load(tx) == ref {
			n.val.Store(tx, 0)
		}
		cur = n.next.Load(tx)
	}
}

// SA is the set-associative strict scheme: A arrays of bucket lists, with
// each thread assigned to one array. Concurrent Reserves rarely touch the
// same list, but Revoke must scan ref's bucket in all A arrays (O(A+T)).
//
// With one array it is RR-DM, the direct-mapped scheme: Revoke only scans
// threads whose reservations hash to ref's bucket, at the cost of
// Reserve/Release doing doubly-linked-list surgery that can conflict
// between threads.
type SA struct {
	arrs []*dmArray
}

// newSA constructs an SA reservation with a arrays.
func newSA(cfg Config, a int) Reservation {
	arrs := make([]*dmArray, a)
	for i := range arrs {
		arrs[i] = newDMArray(cfg.Threads, cfg.TableBits)
	}
	return &SA{arrs: arrs}
}

// array returns the dmArray thread tid is assigned to.
func (s *SA) array(tid int) *dmArray { return s.arrs[tid%len(s.arrs)] }

// Register implements Reservation.
func (s *SA) Register(tid int) {}

// Reserve implements Reservation.
func (s *SA) Reserve(tx *stm.Tx, tid int, ref uint64) { s.array(tid).reserve(tx, tid, ref) }

// Release implements Reservation: it clears the value but leaves the node
// linked; the next Reserve relocates it only if needed.
func (s *SA) Release(tx *stm.Tx, tid int) { s.array(tid).entries[tid].val.Store(tx, 0) }

// Get implements Reservation.
func (s *SA) Get(tx *stm.Tx, tid int) uint64 { return s.array(tid).entries[tid].val.Load(tx) }

// Revoke implements Reservation: every array may hold reservations of ref.
func (s *SA) Revoke(tx *stm.Tx, ref uint64) {
	for _, a := range s.arrs {
		a.revoke(tx, ref)
	}
}
