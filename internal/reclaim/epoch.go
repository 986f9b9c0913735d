package reclaim

import (
	"sync/atomic"

	"hohtx/internal/arena"
	"hohtx/internal/pad"
)

// Epochs implements epoch-based deferred reclamation (the family the paper
// groups with RCU [9]: scalable, but with unbounded worst-case delay for an
// unbounded number of items). Threads bracket their data structure
// operations with Enter/Exit; a node retired in epoch e is freed once the
// global epoch reaches e+2, which requires every thread active at
// retirement time to have passed through a quiescent point.
type Epochs struct {
	retireList
	global atomic.Uint64
	_      pad.Line
	// announced is each thread's announced epoch; the low bit is the
	// "active" flag (set while inside an operation).
	announced []announcement
	// advanceEvery makes threads attempt an epoch advance every N
	// retirements, batching frees like an epoch allocator would.
	advanceEvery uint64
	// guard, the structure's Config.Guard, makes Retire panic if the
	// calling thread is not inside an Enter/Exit bracket. An unbracketed
	// retire is a protocol violation: the retiring thread looks quiescent
	// to tryAdvance, so the epoch can advance past the retiree and free it
	// under a concurrent reader. Off, it costs one predictable branch.
	guard bool
}

// announcement is one thread's announced epoch, padded.
type announcement struct {
	epoch atomic.Uint64
	_     pad.Line
}

// NewEpochs creates an epoch domain. Threads attempt an epoch advance
// every scan threshold of retirements, batching frees like an epoch
// allocator would.
func NewEpochs(n Nodes) Scheme {
	return &Epochs{
		retireList:   newRetireList(n.Threads, 0, n.Free),
		announced:    make([]announcement, n.Threads),
		advanceEvery: uint64(n.scanThreshold()),
		guard:        n.Config.Guard,
	}
}

// Traits implements Scheme: at quiescence Flush's advances pass every
// retiree's epoch, so one round drains.
func (e *Epochs) Traits() Traits { return Traits{Deferred: true, DrainRounds: 1} }

// Enter implements Scheme: it marks the thread active in the current global
// epoch. Every data structure operation must be bracketed by Enter/Exit.
func (e *Epochs) Enter(tid int) {
	g := e.global.Load()
	e.announced[tid].epoch.Store(g<<1 | 1)
}

// Exit implements Scheme: it marks the thread quiescent.
func (e *Epochs) Exit(tid int) {
	a := &e.announced[tid].epoch
	a.Store(a.Load() &^ 1)
}

// Retire implements Scheme. The caller must be between Enter and Exit.
func (e *Epochs) Retire(tid int, h arena.Handle, stamp uint64) {
	if e.guard && e.announced[tid].epoch.Load()&1 == 0 {
		panic("reclaim: Epochs.Retire outside an Enter/Exit bracket; the epoch can advance past this retiree and free it under a concurrent reader")
	}
	if t := e.retire(tid, h, stamp, e.global.Load()); t.retired.Load()%e.advanceEvery == 0 {
		e.tryAdvance()
	}
	e.drain(tid, stamp)
}

// Flush implements Scheme: it attempts epoch advances and drains whatever
// becomes reclaimable. Nodes retired in the current or previous epoch
// remain deferred (that is the scheme's inherent imprecision).
func (e *Epochs) Flush(tid int, stamp uint64) {
	for i := 0; i < 3; i++ {
		e.tryAdvance()
	}
	e.drain(tid, stamp)
}

// tryAdvance advances the global epoch if every active thread has observed
// the current one.
func (e *Epochs) tryAdvance() {
	g := e.global.Load()
	for i := range e.announced {
		ep := e.announced[i].epoch.Load()
		if ep&1 == 1 && ep>>1 != g {
			return // someone is still active in an older epoch
		}
	}
	e.global.CompareAndSwap(g, g+1)
}

// drain frees the caller's retired nodes whose epoch is at least two
// behind the global epoch.
func (e *Epochs) drain(tid int, stamp uint64) {
	g := e.global.Load()
	e.sweepOrdered(tid, stamp, func(_ []uint64, r retiree) bool { return r.stamp+2 > g })
}

// Leak is the no-reclamation scheme: Retire just counts. It approximates
// the best-case performance of deferred schemes (no reclamation work at
// all) with the worst-case memory behavior (unbounded growth), exactly the
// role the LFLeak baselines play in the paper's evaluation.
type Leak struct {
	retireList
}

// NewLeak creates a Leak domain.
func NewLeak(n Nodes) Scheme { return &Leak{newRetireList(n.Threads, 0, nil)} }

// Traits implements Scheme.
func (l *Leak) Traits() Traits { return Traits{Deferred: true, Leak: true, DrainRounds: 1} }

// Retire implements Scheme by leaking h.
func (l *Leak) Retire(tid int, h arena.Handle, _ uint64) { l.count(tid, h) }

// Flush is a no-op: nothing is ever freed.
func (l *Leak) Flush(int, uint64) {}
