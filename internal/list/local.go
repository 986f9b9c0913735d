package list

import (
	"hohtx/internal/arena"
	"hohtx/internal/pad"
	"hohtx/internal/reclaim"
	"hohtx/internal/stm"
)

// The two list-local implementations of the seam (reclaim.Link): the modes
// whose mechanism lives in the list's own node layout or traversal, and
// which the singly linked list and the hash table alone define.

// localLink is the list's reclaim.Layout.Local: the chassis calls it for a
// mode the seam has no generic link for.
func (l *List) localLink(mode Mode, n reclaim.Nodes) reclaim.Link {
	if mode == ModeREF {
		return newRefLink(l, n.Threads)
	}
	return newERLink(l, n)
}

// refStart is one thread's committed REF resume position.
type refStart struct {
	h arena.Handle // Nil = start from the head
	_ pad.Line
}

// refLink is ModeREF: the window-start node is pinned by a transactional
// reference count in its rc cell. A remover marks the node dead and frees
// it at commit only if nobody counts on it; otherwise the last holder's
// decrement does.
type refLink struct {
	l        *List
	starts   []refStart
	freeHook func(a, b, c uint64) // ar.Free(tid a, handle b)
	holdHook func(a, b, c uint64) // starts[tid a] = handle b
}

func newRefLink(l *List, threads int) *refLink {
	r := &refLink{l: l, starts: make([]refStart, threads)}
	r.freeHook = func(a, b, _ uint64) { l.Ar.Free(int(a), arena.Handle(b)) }
	r.holdHook = func(a, b, _ uint64) { r.starts[int(a)].h = arena.Handle(b) }
	return r
}

func (r *refLink) Name() string { return ModeREF.String() }
func (r *refLink) Traits() reclaim.Traits {
	return reclaim.Traits{DrainRounds: 1, StrictLoss: true}
}
func (r *refLink) Register(int)         {}
func (r *refLink) Begin(int)            {}
func (r *refLink) End(int)              {}
func (r *refLink) Finish(int, uint64)   {}
func (r *refLink) Stats() reclaim.Stats { return reclaim.Stats{} }
func (r *refLink) Revoke(*stm.Tx, arena.Handle) {
	panic("list: REF cannot revoke a node that stays linked")
}

func (r *refLink) Born(tx *stm.Tx, tid int, h arena.Handle) {
	tx.OnAbortCall(r.freeHook, uint64(tid), uint64(h), 0)
	r.l.Ar.At(h).dead.Load(tx) // the snapshot must postdate the slot's last free: reclaim's freer.born
}

// release drops one count from h, freeing it at commit if that was the
// last one on a logically deleted node.
func (r *refLink) release(tx *stm.Tx, tid int, h arena.Handle) {
	n := r.l.Ar.At(h)
	v := r.l.Guard.Word(tx, tid, h, n.rc.Load(tx)) - 1
	n.rc.Store(tx, v)
	if v == 0 && r.l.Guard.Word(tx, tid, h, n.dead.Load(tx)) != 0 {
		tx.OnCommitCall(r.freeHook, uint64(tid), uint64(h), 0)
	}
}

func (r *refLink) Resume(tx *stm.Tx, tid int) (arena.Handle, uint64, bool) {
	s := r.starts[tid].h
	if s.IsNil() {
		return arena.Nil, 0, false
	}
	if r.l.Guard.Word(tx, tid, s, r.l.Ar.At(s).dead.Load(tx)) != 0 {
		// Removed since our last window: give back our count and restart.
		// The commit that ends this attempt also moves starts off s (every
		// path from a failed Resume reaches Hold or Drop), so the count is
		// given back exactly once.
		r.release(tx, tid, s)
		return arena.Nil, 0, false
	}
	return s, 0, true
}

func (r *refLink) Hold(tx *stm.Tx, tid int, held bool, h arena.Handle, _ uint64) {
	n := r.l.Ar.At(h)
	n.rc.Store(tx, r.l.Guard.Word(tx, tid, h, n.rc.Load(tx))+1)
	if held {
		r.release(tx, tid, r.starts[tid].h)
	}
	tx.OnCommitCall(r.holdHook, uint64(tid), uint64(h), 0)
}

func (r *refLink) Drop(tx *stm.Tx, tid int, held bool) {
	if held {
		r.release(tx, tid, r.starts[tid].h)
	}
	tx.OnCommitCall(r.holdHook, uint64(tid), uint64(arena.Nil), 0)
}

func (r *refLink) Unlinked(tx *stm.Tx, tid int, h arena.Handle, _ uint64) {
	n := r.l.Ar.At(h)
	n.dead.Store(tx, 1)
	if r.l.Guard.Word(tx, tid, h, n.rc.Load(tx)) == 0 {
		tx.OnCommitCall(r.freeHook, uint64(tid), uint64(h), 0)
	}
	// Otherwise the last window-holder's release frees it.
}

// erLink is ModeER: the seam's deferred link over epochs — every operation
// is one unbounded transaction (W bounds the retained read suffix instead),
// so it never holds; the epochs' critical section is its Begin/End, so nodes
// an operation's released reads still point at cannot be reclaimed under
// it — plus a version bump at an unlink. The mode's rolling early release is
// in the traversal (engine.go).
type erLink struct {
	reclaim.Link
	l *List
}

func newERLink(l *List, n reclaim.Nodes) erLink {
	for i := range l.threads {
		l.threads[i].marks = make([]uint64, n.Window.W)
	}
	return erLink{reclaim.NewDeferred(ModeER.String(), reclaim.NewEpochs(n), n), l}
}

func (e erLink) Traits() reclaim.Traits {
	t := e.Link.Traits()
	t.WholeOp = true
	return t
}

func (e erLink) Unlinked(tx *stm.Tx, tid int, h arena.Handle, stamp uint64) {
	// Re-store the removed node's next (same value: a version bump only).
	// Writers that traversed through h retain its next in their
	// (un-released) read suffix, so this write is what makes a racing
	// insert-after-h or remove-of-successor abort even though the writes
	// to our predecessor were early-released.
	n := e.l.Ar.At(h)
	n.next.Store(tx, uint64(e.l.Guard.Link(tx, tid, h, n.next.Load(tx))))
	e.Link.Unlinked(tx, tid, h, stamp)
}
