package list

import (
	"hohtx/internal/arena"
	"hohtx/internal/stm"
)

// The hand-over-hand window engine (Listing 5's Apply), shared by the
// singly and doubly linked lists. The closure below is one window
// transaction and the chassis's Op (stm.Runtime.Chain) the loop that runs
// them; the traversal position is carried across transactions by the list's
// link (the seam in internal/reclaim, whose file header states each
// mechanism's resume protocol).

// applyFn is a terminal-phase callback; prevH's successor is currH at the
// transaction's snapshot. For the found callback currH holds the key; for
// the not-found callback currH is the first node with a larger key (or
// Nil) and an insert belongs between prevH and currH.
type applyFn func(tx *stm.Tx, prevH, currH arena.Handle) bool

// applyAt runs one set operation on the chain rooted at head (the list's
// own, or one of the hash table's buckets). If reserveFound is true, a
// successful found-terminal leaves the operation's linking mechanism
// attached to currH instead of releasing it (phase one of the doubly linked
// list's two-transaction remove, §4.2) and returns currH as target.
func (l *List) applyAt(tid int, key uint64, head arena.Handle, reserveFound bool, onFound, onNotFound applyFn) (res bool, target arena.Handle) {
	ts := &l.threads[tid]
	l.Op(tid, func(tx *stm.Tx) (more bool) {
		// Reset per attempt: the closure re-runs on abort.
		res = false
		target = arena.Nil

		prevH, _, held, budget := l.Start(tx, tid, head, 0)
		currH := l.Guard.Link(tx, tid, prevH, l.Ar.At(prevH).next.Load(tx))
		steps := 0
		var k uint64
		for !currH.IsNil() {
			if w := len(ts.marks); w != 0 {
				// ModeER: one unbounded transaction; W instead bounds
				// the retained read suffix. Keep only the last W spine
				// nodes' reads under conflict detection; everything
				// older is released.
				if steps >= w {
					tx.ForgetReadsBefore(ts.marks[steps%w])
				}
				ts.marks[steps%w] = tx.ReadMark()
			}
			// One handle translation and one stm call per node visited: the
			// link is read only when the walk goes on past this node.
			bound := key
			if steps >= budget {
				bound = 0
			}
			n := l.Ar.At(currH)
			nk, next, more := stm.LoadBelow(tx, &n.key, &n.next, bound)
			k = l.Guard.Word(tx, tid, currH, nk)
			if !more {
				break
			}
			prevH = currH
			currH = l.Guard.Link(tx, tid, currH, next)
			steps++
		}

		switch {
		case !currH.IsNil() && k == key:
			res = onFound(tx, prevH, currH)
			if reserveFound {
				l.Link.Hold(tx, tid, held, currH, 0)
				target = currH
			} else {
				l.Link.Drop(tx, tid, held)
			}
			return false
		case currH.IsNil() || k > key:
			res = onNotFound(tx, prevH, currH)
			l.Link.Drop(tx, tid, held)
			return false
		default:
			// Budget exhausted mid-traversal: hand over to the next
			// window at currH.
			l.Link.Hold(tx, tid, held, currH, 0)
			return true
		}
	})
	return res, target
}
