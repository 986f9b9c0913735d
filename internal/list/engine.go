package list

import (
	"hohtx/internal/arena"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// The hand-over-hand engine (Listing 5's Apply), shared by the singly and
// doubly linked lists and the hash table's buckets. walk is the one loop
// over a chain. A point operation runs it window by window under the
// chassis's Op (stm.Runtime.Chain), which carries the position between
// window transactions through the list's link (the seam in
// internal/reclaim, whose file header states each mechanism's resume
// protocol); a batch runs it uncut, once per op, under the chassis's Apply;
// a pass runs it once per op under the chassis's Pass, window by window; a
// scan window runs it to the resume key and then collects (iter.go). Where
// the walk ends, the list's terminal does what the op does there.

// terminal is what op does where its walk ends: prevH's successor is currH
// at the transaction's snapshot, and currH holds op's key if found, or is
// the first node with a larger key (or Nil) where an insert belongs. It
// returns op's result, and hold to stay held at currH past the op (the
// doubly linked list's first remove phase).
type terminal func(tx *stm.Tx, tid int, op sets.Op, prevH, currH arena.Handle, found bool) (res, hold bool)

// walk runs from prevH, a node below key (a chain head at first), toward
// key, taking at most budget steps. It returns the last node below key it
// passed, its successor currH, currH's key k (when currH is not Nil) and the
// steps taken to reach currH. currH holds key when k == key, and is where an
// insert of key belongs when k > key. k < key says the budget ran out first,
// with currH a node below key, where the next window resumes.
//
// marks is ModeER's rolling read release (nil otherwise): one unbounded
// transaction, in which W bounds the retained read suffix instead. Only the
// reads of the last len(marks) nodes stay under conflict detection;
// everything older is released.
func (l *linked) walk(tx *stm.Tx, tid int, key uint64, prevH arena.Handle, budget int, marks []uint64) (_, currH arena.Handle, k uint64, steps int) {
	currH = l.Guard.Link(tx, tid, prevH, l.Ar.At(prevH).next.Load(tx))
	for !currH.IsNil() {
		if w := len(marks); w != 0 {
			if steps >= w {
				tx.ForgetReadsBefore(marks[steps%w])
			}
			marks[steps%w] = tx.ReadMark()
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
	return prevH, currH, k, steps
}

// run is op on the chain rooted at head under the chassis's Op: the walk,
// one window at a time, and at where it ends.
func (l *linked) run(tid int, op sets.Op, head arena.Handle, at terminal) (res bool) {
	marks := l.threads[tid].marks
	l.Op(tid, head, 0, func(tx *stm.Tx, prevH arena.Handle, _ uint64, budget int) (arena.Handle, uint64, bool) {
		prevH, currH, k, _ := l.walk(tx, tid, op.Key, prevH, budget, marks)
		if !currH.IsNil() && k < op.Key {
			return currH, 0, true // cut: hand over to the next window at currH
		}
		var hold bool
		if res, hold = at(tx, tid, op, prevH, currH, !currH.IsNil() && k == op.Key); hold {
			return currH, 0, false
		}
		return arena.Nil, 0, false
	})
	return res
}

// apply is ops under the chassis's Apply, sorted into one pass per chain
// (chainOf returns key's chain head): each op walks uncut from the
// predecessor where the last op on its chain stopped, which is below its
// key, and at does what it does there. The batch keeps every read: the walk
// gets no ER marks.
func (l *linked) apply(tid int, ops []sets.Op, chainOf func(key uint64) arena.Handle, at terminal) []sets.Result {
	return l.Chassis.Apply(tid, ops, arena.Nil, 0, chainOf, func(tx *stm.Tx, tid int, op sets.Op, start arena.Handle, _ uint64) (bool, arena.Handle, uint64, bool) {
		prevH, currH, k, _ := l.walk(tx, tid, op.Key, start, reclaim.Uncut, nil)
		res, _ := at(tx, tid, op, prevH, currH, !currH.IsNil() && k == op.Key)
		return res, prevH, 0, false
	})
}

// pass is ops under the chassis's Pass, sorted into one pass per chain
// (chainOf returns key's chain head) and cut into windows, each op its visit.
func (l *linked) pass(tid int, ops []sets.Op, chainOf func(key uint64) arena.Handle) []sets.Result {
	return l.Chassis.Pass(tid, ops, arena.Nil, 0, chainOf, l.visit)
}

// visit is op's share of a pass window (reclaim.Visit): it walks from where
// the pass stands, below op's key, and the singly linked list's terminal
// does what it does there. The walk gets the thread's ER marks, which only
// a whole-op mode has, where each op runs alone.
func (l *linked) visit(tx *stm.Tx, tid int, op sets.Op, start arena.Handle, _ uint64, budget int) (bool, arena.Handle, uint64, int, bool) {
	prevH, currH, k, steps := l.walk(tx, tid, op.Key, start, budget, l.threads[tid].marks)
	if !currH.IsNil() && k < op.Key {
		return false, currH, 0, steps, false // cut: the next window resumes at currH
	}
	res, _ := l.at(tx, tid, op, prevH, currH, !currH.IsNil() && k == op.Key)
	return res, prevH, 0, steps, true
}
