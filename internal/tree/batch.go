package tree

import (
	"hohtx/internal/arena"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Batch execution: Apply runs the whole op slice inside ONE transaction.
// Each op performs a full, unbounded descent from the root — the window
// machinery exists to split transactions, and a batch is the opposite
// trade — so no holds or resumptions are involved; the single-op removal
// logic (including the internal tree's successor-path revokes) is reused
// verbatim, which keeps precise reclamation intact for batches. Oversized
// batches overflow the transaction capacity and fall back to serial mode;
// stm.Stats.Batch records that per batch-size bucket.

// Apply implements sets.Set for the internal tree.
func (t *Internal) Apply(tid int, ops []sets.Op) []sets.Result {
	return t.applyBatch(tid, ops, t.applyOneInTx)
}

// applyOneInTx is one full descent inside the batch transaction. The root
// sentinel's key is +∞, so a match always has a known parent.
func (t *Internal) applyOneInTx(tx *stm.Tx, tid int, op sets.Op) bool {
	if op.Kind == sets.OpInsert && op.Key > MaxKey {
		panic("tree: key out of range")
	}
	prevH, currH := arena.Nil, t.root
	dir := 0
	for {
		if currH.IsNil() {
			if op.Kind == sets.OpInsert {
				nh := t.allocNode(tx, tid, op.Key, arena.Nil, arena.Nil)
				child(t.Ar.At(prevH), dir).Store(tx, uint64(nh))
				return true
			}
			return false
		}
		n := t.Ar.At(currH)
		ck := t.Guard.Word(tx, tid, currH, n.key.Load(tx))
		if ck == op.Key {
			switch op.Kind {
			case sets.OpLookup:
				return true
			case sets.OpInsert:
				return false
			default:
				t.removeFound(tx, tid, prevH, currH, dir)
				return true
			}
		}
		prevH = currH
		if op.Key < ck {
			currH = t.Guard.Link(tx, tid, currH, n.left.Load(tx))
			dir = 0
		} else {
			currH = t.Guard.Link(tx, tid, currH, n.right.Load(tx))
			dir = 1
		}
	}
}

// Apply implements sets.Set for the external tree.
func (t *External) Apply(tid int, ops []sets.Op) []sets.Result {
	return t.applyBatch(tid, ops, t.applyOneInTx)
}

// applyOneInTx descends from the root to the leaf covering op.Key. A full
// descent always reaches real leaves through a parent router and (for real
// keys) a grandparent, so the depth restarts of the windowed engine cannot
// arise; a poisoned link (guard mode, doomed snapshot) restarts the whole
// batch instead.
func (t *External) applyOneInTx(tx *stm.Tx, tid int, op sets.Op) bool {
	if op.Kind == sets.OpInsert && op.Key > MaxKey {
		panic("tree: key out of range")
	}
	gH, pH := arena.Nil, arena.Nil
	pDir, cDir := 0, 0
	currH := t.root
	for {
		n := t.Ar.At(currH)
		if t.Guard.Link(tx, tid, currH, n.left.Load(tx)).IsNil() {
			leafKey := t.Guard.Word(tx, tid, currH, n.key.Load(tx))
			switch op.Kind {
			case sets.OpLookup:
				return leafKey == op.Key
			case sets.OpInsert:
				if leafKey == op.Key {
					return false
				}
				newLeaf := t.allocNode(tx, tid, op.Key, arena.Nil, arena.Nil)
				var router arena.Handle
				if op.Key < leafKey {
					router = t.allocNode(tx, tid, leafKey, newLeaf, currH)
				} else {
					router = t.allocNode(tx, tid, op.Key, currH, newLeaf)
				}
				child(t.Ar.At(pH), cDir).Store(tx, uint64(router))
				return true
			default:
				if leafKey != op.Key {
					return false
				}
				sibling := uint64(t.Guard.Link(tx, tid, pH, child(t.Ar.At(pH), 1-cDir).Load(tx)))
				child(t.Ar.At(gH), pDir).Store(tx, sibling)
				t.Unlinked(tx, tid, pH)
				t.Unlinked(tx, tid, currH)
				return true
			}
		}
		gH, pDir = pH, cDir
		pH = currH
		if op.Key < t.Guard.Word(tx, tid, currH, n.key.Load(tx)) {
			currH = t.Guard.Link(tx, tid, currH, n.left.Load(tx))
			cDir = 0
		} else {
			currH = t.Guard.Link(tx, tid, currH, n.right.Load(tx))
			cDir = 1
		}
		if currH.IsNil() {
			// Routers never have Nil children; only a poisoned link
			// defuses to Nil. The attempt is doomed — abort and re-run.
			tx.Restart()
		}
	}
}
