package skiplist

import (
	"hohtx/internal/arena"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Ordered iteration: the skiplist's traversal under the chassis's cursor protocol
// (reclaim.Chassis.Cursor, which states the contract). A scan window is a
// lookup's descent (run) to the resume key from the held node at the held
// level, then a collect along the bottom chain that shares the descent's
// step count. Cuts hold the current node exactly as point operations do, so
// a concurrent Remove revokes the cursor with the same single Revoke it
// already pays, and the next window re-navigates from the head by key —
// O(log n) expected, the same cost that makes the skiplist the stand-in for
// a balanced tree.

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
		func(tx *stm.Tx, start arena.Handle, level uint64, budget, want int, last uint64, batch []uint64) ([]uint64, arena.Handle, uint64) {
			c := &searchCtx{tx: tx, tid: tid, curr: start, level: int(level)}
			if s.run(c, last, budget, 0, 0) == advCut {
				return batch, c.curr, uint64(c.level)
			}
			if c.next.IsNil() {
				return batch, arena.Nil, 0 // end of the bottom chain
			}
			return s.collect(tx, tid, c.next, c.nk, c.steps+1, budget, want, batch)
		})
	return nil
}

// collect appends keys along the bottom chain from h, the descent's first
// node at or past the resume key, whose key k the descent has read, and
// which is the steps-th step right the window takes. Each further node is
// one visit: its key, and its bottom link while more keys are wanted. It
// stops at the want-th key or the budget's last step, returning where to
// hold — the node of the last key appended, at level 0 — or Nil at the
// chain's end.
func (s *SkipList) collect(tx *stm.Tx, tid int, h arena.Handle, k uint64, steps, budget, want int, batch []uint64) ([]uint64, arena.Handle, uint64) {
	if batch = append(batch, k); len(batch) == want || steps >= budget {
		return batch, h, 0
	}
	h = s.Guard.Link(tx, tid, h, s.Ar.At(h).next[0].Load(tx)) // the descent read h's key only
	for !h.IsNil() {
		steps++
		bound := ^uint64(0)
		if len(batch)+1 == want || steps >= budget {
			bound = 0 // the window's last key: its link is not read
		}
		n := s.Ar.At(h)
		nk, link, more := stm.LoadBelow(tx, &n.key, &n.next[0], bound)
		if batch = append(batch, s.Guard.Word(tx, tid, h, nk)); !more {
			return batch, h, 0
		}
		h = s.Guard.Link(tx, tid, h, link)
	}
	return batch, arena.Nil, 0
}

var _ sets.Ascender = (*SkipList)(nil)
