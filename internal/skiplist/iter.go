package skiplist

import (
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Ordered iteration.
//
// The skiplist cursor is the list cursor (see internal/list/iter.go)
// plus a descent: each window resumes from the reserved node at the
// stashed level, runs right while the next key is below the resume
// point, drops to level 0, and then collects keys along the bottom
// chain until the budget is exhausted. Cuts reserve the current node
// exactly as point operations do, so a concurrent Remove revokes the
// cursor with the same single Revoke it already pays, and the next
// window re-navigates from the head by key — O(log n) expected, the
// same cost that makes the skiplist the stand-in for a balanced tree.

// Ascend implements sets.Ascender: it calls fn for each key >= from, in
// ascending order, until fn returns false or the skiplist is exhausted.
// Both skiplist modes support it (ModeHTM runs the whole scan as one
// transaction). The iteration is weakly consistent in the
// sync.Map.Range style documented on sets.Ascender, and the reservation
// hold is released on every exit path — exhaustion, early fn → false,
// or a panicking consumer.
func (s *SkipList) Ascend(tid int, from uint64, fn func(key uint64) bool) error {
	s.threads[tid].ops++
	last := from // next key to deliver must be >= last
	var batch []uint64
	holding := false
	windows, renavs := 0, 0
	defer func() {
		if holding {
			s.dropHoldOutsideWindow(tid)
		}
		if s.scanWindows != nil {
			s.scanWindows.Record(uint64(windows))
			s.scanRenavs.Record(uint64(renavs))
		}
	}()
	for {
		done := false
		resumed := false
		batch = batch[:0]
		s.rt.AtomicT(tid, func(tx *stm.Tx) {
			done = false
			batch = batch[:0]
			start, level, held := s.windowStart(tx, tid)
			resumed = held
			budget := s.budgetFor(tx, held, false)
			c := &searchCtx{tx: tx, tid: tid, curr: start, level: level}
			n := s.ar.At(c.curr)
			for {
				nextH := s.guard.Link(tx, tid, c.curr, n.next[c.level].Load(tx))
				if nextH.IsNil() {
					if c.level == 0 {
						// End of the bottom chain: the scan is complete.
						s.link.Drop(tx, tid, held)
						done = true
						return
					}
					c.level--
					continue
				}
				next := s.ar.At(nextH)
				nk := s.guard.Word(tx, tid, nextH, next.key.Load(tx))
				if nk >= last {
					if c.level > 0 {
						// Descend: the first key >= last is below us.
						c.level--
						continue
					}
					// Bottom chain: deliver (keys here ascend, so every
					// subsequent key also clears last).
					batch = append(batch, nk)
				}
				// Advance rightward (toward the resume point above level 0,
				// collecting along the bottom at level 0). Only rightward
				// steps consume budget, matching run().
				c.curr, n = nextH, next
				c.steps++
				if c.steps >= budget {
					// Cut even with an empty batch: re-navigation after a
					// revocation stays windowed. When the batch is
					// non-empty the hold lands on the node holding its
					// last key, which is < the next window's resume key.
					s.link.Hold(tx, tid, held, c.curr, uint64(c.level))
					return
				}
			}
		})
		windows++
		if windows > 1 && !resumed {
			// The previous hold was revoked (or spuriously lost): this
			// window had to re-navigate from the head by key.
			renavs++
		}
		holding = !done
		for _, k := range batch {
			if !fn(k) {
				return nil
			}
			last = k + 1
		}
		if done {
			return nil
		}
	}
}

// CanAscend reports that the skiplist supports the windowed cursor in
// every mode (the serve layer advertises scan capability through it): a
// cursor resumes exactly like a point operation, through the link.
func (s *SkipList) CanAscend() bool { return true }

// dropHoldOutsideWindow releases the iterator's reservation from outside
// any window transaction (early consumer termination or a consumer
// panic).
func (s *SkipList) dropHoldOutsideWindow(tid int) {
	s.rt.AtomicT(tid, func(tx *stm.Tx) { s.link.Drop(tx, tid, true) })
}

var _ sets.Ascender = (*SkipList)(nil)
