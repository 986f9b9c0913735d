package skiplist

import (
	"hohtx/internal/arena"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Batch execution: Apply runs the whole op slice inside ONE transaction,
// each op as a full uncut descent from the head (the window machinery
// splits transactions; a batch merges them). Insert heights are drawn
// before the transaction so retries relink identically; removals still
// Revoke the victim, so precise reclamation holds for batches. Oversized
// batches overflow the capacity and commit through the serial fallback,
// which stm.Stats.Batch records per batch-size bucket.

// Apply implements sets.Set.
func (s *SkipList) Apply(tid int, ops []sets.Op) []sets.Result {
	if len(ops) == 0 {
		return nil
	}
	ts := &s.threads[tid]
	if cap(ts.batchHeights) < len(ops) {
		ts.batchHeights = make([]int, len(ops))
	}
	out, heights := s.Results(tid, len(ops)), ts.batchHeights[:len(ops)]
	for i, op := range ops {
		if op.Kind == sets.OpInsert {
			heights[i] = s.randHeight(tid)
		}
	}
	s.Batch(tid, len(ops), func(tx *stm.Tx) {
		for i, op := range ops {
			switch op.Kind {
			case sets.OpInsert:
				out[i] = s.insertInTx(tx, tid, op.Key, heights[i])
			case sets.OpRemove:
				out[i] = s.removeInTx(tx, tid, op.Key)
			default:
				c := &searchCtx{tx: tx, tid: tid, curr: s.head, level: top}
				out[i] = s.run(c, op.Key, unbounded, 0, 0) == advMatched
			}
		}
	})
	return out
}

// insertInTx is Insert's link phase with an uncut in-transaction descent.
func (s *SkipList) insertInTx(tx *stm.Tx, tid int, key uint64, h int) bool {
	c := &searchCtx{tx: tx, tid: tid, curr: s.head, level: top}
	if c.level >= h {
		switch s.run(c, key, unbounded, h, h) {
		case advMatched:
			return false
		case advStopped:
			c.level--
		}
	}
	var preds [MaxHeight]arena.Handle
	for l := h - 1; l > c.level; l-- {
		preds[l] = c.curr
	}
	if !s.collectPreds(c, key, arena.Nil, &preds) {
		return false
	}
	s.linkNode(tx, tid, key, h, &preds)
	return true
}

// removeInTx is Remove with an uncut in-transaction descent: the first
// match is at the victim's top level, so the predecessors at every level
// collect in the same pass.
func (s *SkipList) removeInTx(tx *stm.Tx, tid int, key uint64) bool {
	c := &searchCtx{tx: tx, tid: tid, curr: s.head, level: top}
	if s.run(c, key, unbounded, 0, 0) == advStopped {
		return false
	}
	victim := s.Guard.Link(tx, tid, c.curr, s.Ar.At(c.curr).next[c.level].Load(tx))
	if victim.IsNil() {
		// Poisoned link (doomed snapshot): abort and re-run the batch.
		tx.Restart()
	}
	vh := int(s.Guard.Word(tx, tid, victim, s.Ar.At(victim).height.Load(tx)))
	if c.level != vh-1 {
		// Unreachable from an uncut descent unless the snapshot is doomed.
		tx.Restart()
	}
	var preds [MaxHeight]arena.Handle
	if !s.collectPreds(c, key, victim, &preds) {
		panic("skiplist: unreachable: duplicate key beside victim")
	}
	s.unlinkNode(tx, tid, victim, vh, &preds)
	return true
}
