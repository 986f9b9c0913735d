package list

import (
	"hohtx/internal/arena"
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
	List
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
	res := d.applyAt(tid, key, d.head, false,
		func(tx *stm.Tx, prevH, currH arena.Handle) bool { return false },
		func(tx *stm.Tx, prevH, currH arena.Handle) bool {
			d.insertDoubly(tx, tid, key, prevH, currH)
			return true
		},
	)
	return res
}

// phase-2 outcomes of the two-transaction remove.
const (
	removedOp = iota
	lostOp
	retryOp
)

// Remove implements sets.Set.
func (d *DList) Remove(tid int, key uint64) bool {
	if d.Traits.WholeOp {
		// Single-transaction removal; the traversal and unlink commit
		// together, so no hold is involved.
		res := d.applyAt(tid, key, d.head, false,
			func(tx *stm.Tx, prevH, currH arena.Handle) bool {
				d.removeDoublyInTx(tx, tid, prevH, currH)
				return true
			},
			func(tx *stm.Tx, prevH, currH arena.Handle) bool { return false },
		)
		return res
	}
	for {
		// Phase 1: locate the node and leave our hold attached to it.
		found := d.applyAt(tid, key, d.head, true,
			func(tx *stm.Tx, prevH, currH arena.Handle) bool { return true },
			func(tx *stm.Tx, prevH, currH arena.Handle) bool { return false },
		)
		if !found {
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

// removePhase2 unlinks the node phase 1 left held, in its own transaction.
// Release can only return what phase 1 held. If the hold is gone, a link
// whose losses are strict (a strict reservation, which only Revoke(target)
// clears and only the thread removing target revokes; a dead mark or a
// generation change) proves a racing Remove took the node; a relaxed
// reservation cannot tell that from a spurious loss.
func (d *DList) removePhase2(tid int) int {
	out := retryOp
	d.RT.AtomicT(tid, func(tx *stm.Tx) {
		out = retryOp
		h, held := d.Release(tx, tid)
		if !held {
			if d.Traits.StrictLoss {
				out = lostOp
			}
			return
		}
		d.removeDoublyInTx(tx, tid, arena.Nil, h)
		out = removedOp
	})
	return out
}

// unlinkDoubly splices currH out using its own links; the predecessor is
// always a real node (ultimately the head sentinel).
func (d *DList) unlinkDoubly(tx *stm.Tx, tid int, currH arena.Handle) {
	curr := d.Ar.At(currH)
	p := d.Guard.Link(tx, tid, currH, curr.prev.Load(tx))
	nx := d.Guard.Link(tx, tid, currH, curr.next.Load(tx))
	if p.IsNil() {
		// Only a poisoned prev defuses to Nil (real predecessors bottom out
		// at the head sentinel); this attempt is doomed, skip the splice.
		return
	}
	d.Ar.At(p).next.Store(tx, uint64(nx))
	if !nx.IsNil() {
		d.Ar.At(nx).prev.Store(tx, uint64(p))
	}
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
