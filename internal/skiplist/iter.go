package skiplist

import (
	"hohtx/internal/arena"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Ordered iteration: the skiplist's traversal under the chassis's cursor protocol
// (reclaim.Chassis.Cursor, which states the contract) plus a descent. Each
// window resumes from the held node at the held level, runs right while the
// next key is below the resume point, drops to level 0, and then collects
// keys along the bottom chain until the budget is exhausted. Cuts hold the
// current node exactly as point operations do, so a concurrent Remove
// revokes the cursor with the same single Revoke it already pays, and the
// next window re-navigates from the head by key — O(log n) expected, the
// same cost that makes the skiplist the stand-in for a balanced tree.

// Ascend implements sets.Ascender: it calls fn for each key >= from, in
// ascending order, until fn returns false or the skiplist is exhausted.
// Every mode supports it (ModeHTM runs the whole scan as one transaction):
// a cursor resumes exactly like a point operation, through the link.
func (s *SkipList) Ascend(tid int, from uint64, fn func(key uint64) bool) error {
	return s.AscendN(tid, from, 0, fn)
}

// AscendN implements sets.Ascender: Ascend, over after limit keys when
// limit > 0.
func (s *SkipList) AscendN(tid int, from uint64, limit int, fn func(key uint64) bool) error {
	s.Cursor(tid, from, limit, s.head, top, fn,
		func(tx *stm.Tx, curr arena.Handle, word uint64, budget, want int, last uint64, batch []uint64) ([]uint64, arena.Handle, uint64) {
			n, level := s.Ar.At(curr), int(word)
			for steps := 0; steps < budget; {
				nextH := s.Guard.Link(tx, tid, curr, n.next[level].Load(tx))
				if nextH.IsNil() {
					if level == 0 {
						return batch, arena.Nil, 0 // end of the bottom chain
					}
					level--
					continue
				}
				next := s.Ar.At(nextH)
				nk := s.Guard.Word(tx, tid, nextH, next.key.Load(tx))
				if nk >= last {
					if level > 0 {
						// Descend: the first key >= last is below us.
						level--
						continue
					}
					// Bottom chain: deliver (keys here ascend, so every
					// subsequent key also clears last).
					if batch = append(batch, nk); len(batch) == want {
						return batch, curr, uint64(level) // the scan's last key: nothing past it is read
					}
				}
				// Advance rightward (toward the resume point above level 0,
				// collecting along the bottom at level 0). Only rightward
				// steps consume budget, matching run().
				curr, n = nextH, next
				steps++
			}
			// Cut: with a non-empty batch the hold lands on the node holding
			// its last key, which is < the next window's resume key.
			return batch, curr, uint64(level)
		})
	return nil
}

// CanAscend reports that the skiplist supports the windowed cursor in
// every mode (the serve layer advertises scan capability through it).
func (s *SkipList) CanAscend() bool { return true }

var _ sets.Ascender = (*SkipList)(nil)
