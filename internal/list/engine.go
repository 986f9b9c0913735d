package list

import (
	"hohtx/internal/arena"
	"hohtx/internal/stm"
)

// The hand-over-hand window engine (Listing 5's Apply), shared by the
// singly and doubly linked lists. The closure below is one window
// transaction and stm.Runtime.Chain is the loop that runs them; the
// traversal position is carried across transactions by the list's link (the
// seam in internal/reclaim, whose file header states each mechanism's resume
// protocol).

// applyFn is a terminal-phase callback; prevH's successor is currH at the
// transaction's snapshot. For the found callback currH holds the key; for
// the not-found callback currH is the first node with a larger key (or
// Nil) and an insert belongs between prevH and currH.
type applyFn func(tx *stm.Tx, prevH, currH arena.Handle) bool

// apply runs one set operation. If reserveFound is true, a successful
// found-terminal leaves the operation's linking mechanism attached to
// currH instead of releasing it (phase one of the doubly linked list's
// two-transaction remove, §4.2) and returns currH as target.
func (l *List) apply(tid int, key uint64, reserveFound bool, onFound, onNotFound applyFn) (res bool, target arena.Handle) {
	return l.applyAt(tid, key, l.head, reserveFound, onFound, onNotFound)
}

// applyAt is apply with an explicit traversal root, letting one List's
// machinery serve many independent chains (the hash table's buckets).
func (l *List) applyAt(tid int, key uint64, head arena.Handle, reserveFound bool, onFound, onNotFound applyFn) (res bool, target arena.Handle) {
	ts := &l.threads[tid]
	ts.ops++
	if l.enterEpoch(tid) {
		defer l.ep.Exit(tid)
	}
	l.rt.Chain(tid, func(tx *stm.Tx) (more bool) {
		// Reset per attempt: the closure re-runs on abort.
		res = false
		target = arena.Nil

		win := l.window()
		startH, _, held := l.link.Resume(tx, tid)
		var budget int
		if held {
			budget = win.Next()
		} else {
			startH = head
			budget = win.First(tx)
		}

		prevH := startH
		currH := l.guard.Link(tx, tid, prevH, l.ar.At(prevH).next.Load(tx))
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
			n := l.ar.At(currH) // one handle translation per node visited
			k = l.guard.Word(tx, tid, currH, n.key.Load(tx))
			if k >= key || steps >= budget {
				break
			}
			prevH = currH
			currH = l.guard.Link(tx, tid, currH, n.next.Load(tx))
			steps++
		}

		switch {
		case !currH.IsNil() && k == key:
			res = onFound(tx, prevH, currH)
			if reserveFound {
				l.link.Hold(tx, tid, held, currH, 0)
				target = currH
			} else {
				l.link.Drop(tx, tid, held)
			}
			return false
		case currH.IsNil() || k > key:
			res = onNotFound(tx, prevH, currH)
			l.link.Drop(tx, tid, held)
			return false
		default:
			// Budget exhausted mid-traversal: hand over to the next
			// window at currH.
			l.link.Hold(tx, tid, held, currH, 0)
			return true
		}
	})
	return res, target
}
