package list

import (
	"hohtx/internal/arena"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// DList is the doubly linked set (§4.2). Traversals are identical to the
// singly linked list; insertions additionally maintain back links; and
// removal exploits them: because a node's predecessor and successor are
// both reachable from the node itself, a Remove can finish its traversal
// by merely *reserving* the found node, commit, and then unlink + revoke
// in a second, much smaller transaction. If that second transaction finds
// the reservation gone, a strict reservation proves a concurrent Remove
// took the same node (return false); a relaxed one cannot distinguish that
// from a spurious invalidation, so the whole operation retries (§4.2).
type DList struct {
	linked
}

// NewDoubly constructs a doubly linked list set. The list-local modes are
// not supported (the paper drops reference counting after the singly
// linked list experiments).
func NewDoubly(cfg Config) *DList {
	if !cfg.Mode.Generic() {
		panic("list: ModeREF and ModeER are only implemented for the singly linked list")
	}
	d := new(DList)
	d.init(cfg)
	return d
}

// Insert implements sets.Set, maintaining prev links.
func (d *DList) Insert(tid int, key uint64) bool {
	return d.run(tid, sets.Op{Kind: sets.OpInsert, Key: key}, d.head, d.at)
}

// Apply implements sets.Set. The two-phase reserve-then-unlink removal of
// the single-op path collapses back into the enclosing transaction (as in
// its ModeHTM path): traversal and unlink commit together, so no hold phase
// is needed; the link still sees the victim unlinked, so ModeRR revokes it
// for other threads' reservations.
func (d *DList) Apply(tid int, ops []sets.Op) []sets.Result {
	return d.apply(tid, ops, func(uint64) arena.Handle { return d.head }, d.at)
}

// at is the doubly linked list's terminal: an insert maintains the back
// link too, and a remove unlinks currH in one phase, through its own links.
func (d *DList) at(tx *stm.Tx, tid int, op sets.Op, prevH, currH arena.Handle, found bool) (bool, bool) {
	switch {
	case op.Kind == sets.OpInsert && !found:
		nh := d.allocNode(tx, tid, op.Key, currH, prevH)
		d.Ar.At(prevH).next.Store(tx, uint64(nh))
		if !currH.IsNil() {
			d.Ar.At(currH).prev.Store(tx, uint64(nh))
		}
	case op.Kind == sets.OpRemove && found:
		d.unlink(tx, tid, currH)
	default:
		return op.Kind == sets.OpLookup && found, false
	}
	return true, false
}

// holdFound is the first remove phase's terminal: it finds the key and
// stays held at it.
func holdFound(_ *stm.Tx, _ int, _ sets.Op, _, _ arena.Handle, found bool) (bool, bool) {
	return found, found
}

// phase-2 outcomes of the two-transaction remove.
const (
	removedOp = iota
	lostOp
	retryOp
)

// Remove implements sets.Set.
func (d *DList) Remove(tid int, key uint64) bool {
	op := sets.Op{Kind: sets.OpRemove, Key: key}
	if d.Traits.WholeOp {
		// Single-transaction removal; the traversal and unlink commit
		// together, so no hold is involved.
		return d.run(tid, op, d.head, d.at)
	}
	for {
		// Phase 1: locate the node and leave our hold attached to it.
		if !d.run(tid, op, d.head, holdFound) {
			return false
		}
		switch d.removePhase2(tid) {
		case removedOp:
			return true
		case lostOp:
			// A concurrent Remove of the same node committed first; this
			// operation linearizes immediately after it.
			return false
		}
		// retryOp: a relaxed reservation was spuriously invalidated —
		// retry the entire operation from the head.
	}
}

// removePhase2 unlinks the node phase 1 left held, in its own transaction
// inside phase 1's bracket (the chassis's Release). Release can only return
// what phase 1 held. If the hold is gone, a link whose losses are strict (a
// strict reservation, which only Revoke(target) clears and only the thread
// removing target revokes; a dead mark or a generation change) proves a
// racing Remove took the node; a relaxed reservation cannot tell that from
// a spurious loss.
func (d *DList) removePhase2(tid int) int {
	out := retryOp
	d.Release(tid, func(tx *stm.Tx, h arena.Handle, held bool) {
		out = retryOp
		if !held {
			if d.Traits.StrictLoss {
				out = lostOp
			}
			return
		}
		d.unlink(tx, tid, h)
		out = removedOp
	})
	return out
}

// unlink splices currH out using its own links and hands it to the link;
// the predecessor is always a real node (ultimately the head sentinel).
func (d *DList) unlink(tx *stm.Tx, tid int, currH arena.Handle) {
	curr := d.Ar.At(currH)
	p := d.Guard.Link(tx, tid, currH, curr.prev.Load(tx))
	nx := d.Guard.Link(tx, tid, currH, curr.next.Load(tx))
	// Only a poisoned prev defuses to Nil (real predecessors bottom out at
	// the head sentinel); this attempt is doomed, skip the splice.
	if !p.IsNil() {
		d.Ar.At(p).next.Store(tx, uint64(nx))
		if !nx.IsNil() {
			d.Ar.At(nx).prev.Store(tx, uint64(p))
		}
	}
	d.Unlinked(tx, tid, currH)
}

// ValidateLinks checks prev/next symmetry over the whole list; it is a
// test helper and requires quiescence.
func (d *DList) ValidateLinks() bool {
	prev := d.head
	for h := arena.Handle(d.Ar.At(d.head).next.Raw()); !h.IsNil(); {
		n := d.Ar.At(h)
		if arena.Handle(n.prev.Raw()) != prev {
			return false
		}
		prev = h
		h = arena.Handle(n.next.Raw())
	}
	return true
}
