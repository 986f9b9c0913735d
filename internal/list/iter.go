package list

import (
	"hohtx/internal/arena"
	"hohtx/internal/stm"
)

// Ordered iteration: the list's traversal under the chassis's cursor protocol
// (reclaim.Chassis.Cursor, which states the contract). A scan window is a
// point operation's walk to the resume key, then a collect along the chain
// that shares the walk's step count.

// Ascend implements sets.Ascender: it calls fn for each key >= from, in
// ascending order, until fn returns false or the list is exhausted. Every
// mode scans (ModeHTM and ModeER run the whole scan as one transaction): a
// cursor resumes exactly like a point operation, through the link.
func (l *linked) Ascend(tid int, from uint64, fn func(key uint64) bool) error {
	return l.AscendN(tid, from, 0, fn)
}

// AscendN implements sets.Ascender: Ascend, over after limit keys when
// limit > 0.
func (l *linked) AscendN(tid int, from uint64, limit int, fn func(key uint64) bool) error {
	l.Cursor(tid, from, limit, l.head, 0, fn,
		func(tx *stm.Tx, prevH arena.Handle, _ uint64, budget, want int, last uint64, batch []uint64) ([]uint64, arena.Handle, uint64) {
			_, currH, k, steps := l.walk(tx, tid, last, prevH, budget, nil)
			if currH.IsNil() || k < last {
				return batch, currH, 0 // exhausted, or cut below last
			}
			return l.collect(tx, tid, currH, k, steps+1, budget, want, batch)
		})
	return nil
}

// collect appends keys along the chain from h, the walk's first node at or
// past the resume key, whose key k the walk has read, and which is the
// steps-th node the window visits. Each further node is one visit: its key,
// and its link while more keys are wanted. It stops at the want-th key or
// the budget's last step, returning where to hold — the node of the last
// key appended, with word 0 — or Nil at the chain's end.
func (l *linked) collect(tx *stm.Tx, tid int, h arena.Handle, k uint64, steps, budget, want int, batch []uint64) ([]uint64, arena.Handle, uint64) {
	if batch = append(batch, k); len(batch) == want || steps >= budget {
		return batch, h, 0
	}
	h = l.Guard.Link(tx, tid, h, l.Ar.At(h).next.Load(tx)) // the walk read h's key only
	for !h.IsNil() {
		steps++
		bound := ^uint64(0)
		if len(batch)+1 == want || steps >= budget {
			bound = 0 // the window's last key: its link is not read
		}
		n := l.Ar.At(h)
		nk, link, more := stm.LoadBelow(tx, &n.key, &n.next, bound)
		if batch = append(batch, l.Guard.Word(tx, tid, h, nk)); !more {
			return batch, h, 0
		}
		h = l.Guard.Link(tx, tid, h, link)
	}
	return batch, arena.Nil, 0
}
