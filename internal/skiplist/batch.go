package skiplist

import (
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Batch execution: Apply runs the whole op slice inside ONE transaction,
// each op as the point operations' step run uncut from the head (the
// window machinery splits transactions; a batch merges them). Insert
// heights are drawn before the transaction so retries relink identically;
// removals still Revoke the victim, so precise reclamation holds for
// batches. Oversized batches overflow the capacity and commit through the
// serial fallback, which stm.Stats.Batch records per batch-size bucket.

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
			var more bool
			if out[i], _, _, more = s.step(tx, tid, op, heights[i], s.head, top, reclaim.Uncut); more {
				tx.Restart() // a doomed snapshot: see reclaim.Uncut
			}
		}
	})
	return out
}
