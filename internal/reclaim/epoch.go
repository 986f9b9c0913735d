package reclaim

import (
	"sync/atomic"

	"hohtx/internal/arena"
	"hohtx/internal/obs"
	"hohtx/internal/pad"
)

// Epochs implements epoch-based deferred reclamation (the family the paper
// groups with RCU [9]: scalable, but with unbounded worst-case delay for an
// unbounded number of items). Threads bracket their data structure
// operations with Enter/Exit; a node retired in epoch e is freed once the
// global epoch reaches e+2, which requires every thread active at
// retirement time to have passed through a quiescent point.
type Epochs struct {
	observer
	global  atomic.Uint64
	_       pad.Line
	threads []epochThread
	stats   []threadStats
	free    FreeFunc
	// advanceEvery makes threads attempt an epoch advance every N
	// retirements, batching frees like an epoch allocator would.
	advanceEvery int
	// Guard, when set, makes Retire panic if the calling thread is not
	// inside an Enter/Exit bracket. An unbracketed retire is a protocol
	// violation: the retiring thread looks quiescent to tryAdvance, so the
	// epoch can advance past the retiree and free it under a concurrent
	// reader. Off by default (release builds pay no assertion cost beyond
	// one predictable branch); torture harnesses switch it on.
	Guard bool
}

// epochRetiree is a retired node stamped with its retirement epoch.
type epochRetiree struct {
	h     arena.Handle
	stamp uint64
	epoch uint64
}

type epochThread struct {
	// epoch is the thread's announced epoch; the low bit is the "active"
	// flag (set while inside an operation).
	epoch atomic.Uint64
	// pending is a FIFO of retired nodes in nondecreasing epoch order;
	// head indexes the first unfreed entry.
	pending      []epochRetiree
	head         int
	sinceAdvance int
	_            pad.Line
}

// NewEpochs creates an epoch domain for threads threads. advanceEvery
// controls how many retirements pass between epoch-advance attempts
// (default DefaultScanThreshold).
func NewEpochs(threads int, advanceEvery int, free FreeFunc) *Epochs {
	if advanceEvery <= 0 {
		advanceEvery = DefaultScanThreshold
	}
	return &Epochs{
		threads:      make([]epochThread, threads),
		stats:        make([]threadStats, threads),
		free:         free,
		advanceEvery: advanceEvery,
	}
}

// Name implements Scheme.
func (e *Epochs) Name() string { return "Epoch" }

// Traits implements Scheme: at quiescence Flush's advances pass every
// retiree's epoch, so one round drains.
func (e *Epochs) Traits() Traits { return Traits{Deferred: true, DrainRounds: 1} }

// Enter implements Scheme: it marks the thread active in the current global
// epoch. Every data structure operation must be bracketed by Enter/Exit.
func (e *Epochs) Enter(tid int) {
	g := e.global.Load()
	e.threads[tid].epoch.Store(g<<1 | 1)
}

// Exit implements Scheme: it marks the thread quiescent.
func (e *Epochs) Exit(tid int) {
	t := &e.threads[tid]
	t.epoch.Store(t.epoch.Load() &^ 1)
}

// Protect is a no-op: epochs protect whole critical sections, not
// individual pointers.
func (e *Epochs) Protect(tid, slot int, h arena.Handle) arena.Handle { return h }

// ClearSlots is a no-op for epochs.
func (e *Epochs) ClearSlots(tid int) {}

// Retire implements Scheme. The caller must be between Enter and Exit.
func (e *Epochs) Retire(tid int, h arena.Handle, stamp uint64) {
	t := &e.threads[tid]
	if e.Guard && t.epoch.Load()&1 == 0 {
		panic("reclaim: Epochs.Retire outside an Enter/Exit bracket; the epoch can advance past this retiree and free it under a concurrent reader")
	}
	g := e.global.Load()
	t.pending = append(t.pending, epochRetiree{h: h, stamp: stamp, epoch: g})
	e.stats[tid].noteRetire()
	e.probe.Note(tid, obs.EvRetire, uint64(h))
	t.sinceAdvance++
	if t.sinceAdvance >= e.advanceEvery {
		t.sinceAdvance = 0
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
	for i := range e.threads {
		ep := e.threads[i].epoch.Load()
		if ep&1 == 1 && ep>>1 != g {
			return // someone is still active in an older epoch
		}
	}
	e.global.CompareAndSwap(g, g+1)
}

// drain frees the caller's retired nodes whose epoch is at least two
// behind the global epoch.
func (e *Epochs) drain(tid int, stamp uint64) {
	if sp := e.reclaimSpan(tid); sp != nil {
		t0 := obs.Now()
		defer func() { sp.Add(obs.SpanReclaim, uint64(obs.Now()-t0)) }()
	}
	t := &e.threads[tid]
	g := e.global.Load()
	st := &e.stats[tid]
	freedAny := false
	for t.head < len(t.pending) && t.pending[t.head].epoch+2 <= g {
		r := t.pending[t.head]
		e.free(tid, r.h)
		st.noteFree(stamp - r.stamp)
		e.noteFreeEv(tid, stamp-r.stamp)
		t.head++
		freedAny = true
	}
	if freedAny {
		st.scans.Add(1)
	}
	if t.head == len(t.pending) {
		t.pending = t.pending[:0]
		t.head = 0
	} else if t.head > 4096 {
		t.pending = append(t.pending[:0], t.pending[t.head:]...)
		t.head = 0
	}
	st.leftover.Store(uint64(len(t.pending) - t.head))
}

// Stats implements Scheme.
func (e *Epochs) Stats() Stats { return sumStats(e.stats) }

var _ Scheme = (*Epochs)(nil)

// Leak is the no-reclamation scheme: Retire just counts. It approximates
// the best-case performance of deferred schemes (no reclamation work at
// all) with the worst-case memory behavior (unbounded growth), exactly the
// role the LFLeak baselines play in the paper's evaluation.
type Leak struct {
	observer
	stats []threadStats
}

// NewLeak creates a Leak domain for threads threads.
func NewLeak(threads int) *Leak {
	return &Leak{stats: make([]threadStats, threads)}
}

// Enter and Exit implement Scheme: Leak has no operation bracket.
func (l *Leak) Enter(int) {}
func (l *Leak) Exit(int)  {}

// Name implements Scheme.
func (l *Leak) Name() string { return "Leak" }

// Traits implements Scheme.
func (l *Leak) Traits() Traits { return Traits{Deferred: true, Leak: true, DrainRounds: 1} }

// Protect is a no-op: leaked nodes are always safe to read.
func (l *Leak) Protect(tid, slot int, h arena.Handle) arena.Handle { return h }

// ClearSlots is a no-op.
func (l *Leak) ClearSlots(tid int) {}

// Retire implements Scheme by leaking h.
func (l *Leak) Retire(tid int, h arena.Handle, stamp uint64) {
	l.stats[tid].noteRetire()
	l.probe.Note(tid, obs.EvRetire, uint64(h))
}

// Flush is a no-op: nothing is ever freed.
func (l *Leak) Flush(tid int, stamp uint64) {}

// Stats implements Scheme.
func (l *Leak) Stats() Stats { return sumStats(l.stats) }

var _ Scheme = (*Leak)(nil)
