package reclaim

import (
	"sync/atomic"

	"hohtx/internal/arena"
	"hohtx/internal/obs"
	"hohtx/internal/pad"
)

// retiree is one logically deleted node awaiting a safe free.
type retiree struct {
	h     arena.Handle
	op    uint64 // the caller's operation stamp at retirement (delay accounting)
	stamp uint64 // the scheme's own: HE's delete era, VBR's fence, the epoch
}

// retireThread is one thread's retire list, published slots and counters,
// padded against false sharing.
type retireThread struct {
	list  []retiree
	slots []atomic.Uint64 // published values (HP's handles, HE's eras); 0 is empty
	pub   []uint64        // every thread's nonzero slots, collected for one sweep

	retired  atomic.Uint64
	freed    atomic.Uint64
	scans    atomic.Uint64
	delaySum atomic.Uint64
	deferred atomic.Uint64
	peak     atomic.Uint64
	leftover atomic.Uint64 // retirees surviving the thread's last sweep
	_        pad.Line
}

// retireList is the bookkeeping every deferred scheme embeds: the
// per-thread retire lists and counters, the published slots, the one free
// loop (sweep) and the Scheme methods that do nothing scheme-specific. A
// scheme adds its policy: the stamp it gives a retiree, when it sweeps,
// and the held test a sweep asks of each retiree.
//
// With no probe attached each instrumented site costs one nil check; the
// physical-free flight event is the arena's job (it sees every free), so
// the list contributes the retire events and the retire→free delay
// distribution that Stats.DelayOpsSum only aggregates.
type retireList struct {
	threads []retireThread
	free    FreeFunc
	probe   *obs.TxProbe
}

func newRetireList(threads, slots int, free FreeFunc) retireList {
	l := retireList{threads: make([]retireThread, threads), free: free}
	for i := range l.threads {
		l.threads[i].slots = make([]atomic.Uint64, slots)
	}
	return l
}

// SetObserver attaches an obs probe to the scheme (nil detaches). Wire it
// before the scheme is shared, as NewDeferred does.
func (l *retireList) SetObserver(p *obs.TxProbe) { l.probe = p }

// Enter, Exit and Born are the defaults of schemes with no operation
// bracket and no per-node birth state.
func (l *retireList) Enter(int)         {}
func (l *retireList) Exit(int)          {}
func (l *retireList) Born(arena.Handle) {}

// Protect is the default of schemes that publish nothing: their readers
// are covered by a bracket (epochs), by validation (VBR), or never freed.
func (l *retireList) Protect(_, _ int, h arena.Handle) arena.Handle { return h }

// ClearSlots resets the thread's published slots (none unless the scheme
// publishes).
func (l *retireList) ClearSlots(tid int) {
	t := &l.threads[tid]
	for i := range t.slots {
		t.slots[i].Store(0)
	}
}

// count books one retirement of h on tid: the counters and the EvRetire
// note. Leak stops here.
func (l *retireList) count(tid int, h arena.Handle) *retireThread {
	t := &l.threads[tid]
	t.retired.Add(1)
	if d := t.deferred.Add(1); d > t.peak.Load() {
		t.peak.Store(d)
	}
	l.probe.Note(tid, obs.EvRetire, uint64(h))
	return t
}

// retire counts h and appends it to tid's list with the caller's op stamp
// and the scheme's stamp; the scheme reads the returned record to decide
// whether to sweep.
func (l *retireList) retire(tid int, h arena.Handle, op, stamp uint64) *retireThread {
	t := l.count(tid, h)
	t.list = append(t.list, retiree{h: h, op: op, stamp: stamp})
	return t
}

// sweep is the one free loop. It collects every thread's published slots
// into pub, frees each of tid's retirees that held does not keep, in list
// order, and keeps the rest in order. op is the caller's stamp now, so a
// free's delay is op minus the retiree's. The pass is stamped as the
// Reclaim phase of the request span armed on tid, unsampled (the slowlog
// must capture the request that paid for a big batch); the delay
// histogram is sampled.
func (l *retireList) sweep(tid int, op uint64, held func(pub []uint64, r retiree) bool) {
	var sp *obs.Span
	var t0 int64
	if l.probe != nil {
		if sp = l.probe.D.SpanOf(tid); sp != nil {
			t0 = obs.Now()
		}
	}
	t := &l.threads[tid]
	t.scans.Add(1)
	pub := t.pub[:0]
	for i := range l.threads {
		for j := range l.threads[i].slots {
			if v := l.threads[i].slots[j].Load(); v != 0 {
				pub = append(pub, v)
			}
		}
	}
	t.pub = pub
	kept := t.list[:0]
	for _, r := range t.list {
		if held(pub, r) {
			kept = append(kept, r)
			continue
		}
		l.free(tid, r.h)
		delay := op - r.op
		t.freed.Add(1)
		t.deferred.Add(^uint64(0))
		t.delaySum.Add(delay)
		if p := l.probe; p != nil && p.D.Sampled(uint64(tid)) {
			p.DelayOps.RecordAt(uint64(tid), delay)
		}
	}
	t.list = kept
	t.leftover.Store(uint64(len(kept)))
	if sp != nil {
		sp.Add(obs.SpanReclaim, uint64(obs.Now()-t0))
	}
}

// rescan sweeps until a pass frees nothing: the Flush of the schemes that
// publish slots (HP, HE), the thread's final drain. One pass is not
// enough: freeing one retiree can be what lets another thread's traversal
// move off a second (clearing the slot that covered it), and slots
// published by threads that finished after this one may still cover
// entries on the first pass. Each pass collects the slots afresh; what
// remains is still held and shows in Stats.Leftover for harnesses to
// assert on.
func (l *retireList) rescan(tid int, op uint64, held func(pub []uint64, r retiree) bool) {
	t := &l.threads[tid]
	for len(t.list) > 0 {
		n := len(t.list)
		l.sweep(tid, op, held)
		if len(t.list) == n {
			return
		}
	}
}

// sweepOrdered is the sweep trigger of the schemes whose stamps only grow
// along a thread's list (VBR's fence, the epoch): held keeps a suffix, so
// a sweep frees exactly the oldest-first prefix, and it runs only when the
// oldest retiree is free to go. A call that frees nothing costs one test,
// counts no pass, and leaves the whole list over.
func (l *retireList) sweepOrdered(tid int, op uint64, held func(pub []uint64, r retiree) bool) {
	t := &l.threads[tid]
	if len(t.list) == 0 {
		return
	}
	if held(nil, t.list[0]) {
		t.leftover.Store(uint64(len(t.list)))
		return
	}
	l.sweep(tid, op, held)
}

// Stats implements Scheme: the threads' counters summed, PeakDeferred the
// largest thread's.
func (l *retireList) Stats() Stats {
	var out Stats
	for i := range l.threads {
		t := &l.threads[i]
		out.Retired += t.retired.Load()
		out.Freed += t.freed.Load()
		out.Scans += t.scans.Load()
		out.DelayOpsSum += t.delaySum.Load()
		out.Deferred += t.deferred.Load()
		out.Leftover += t.leftover.Load()
		out.PeakDeferred = max(out.PeakDeferred, t.peak.Load())
	}
	return out
}
