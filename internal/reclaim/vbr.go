package reclaim

import "hohtx/internal/arena"

// VBR implements version-based reclamation (Sheffi, Herlihy & Petrank —
// see PAPERS.md) on top of the STM's global version clock. Where the
// original scheme keeps a dedicated epoch counter that readers snapshot
// and writers bump on reuse, this runtime already has exactly that
// object: the version fence of stm.Runtime.VersionFence, the clock
// bound PR 2's stm.Word.Retire uses to kill zombie snapshots. Each
// retiree is stamped with the fence current at retirement and freed
// once the fence has *strictly advanced past* that stamp — by then
// every transaction whose read version could still validate a read of
// the node has either committed or is doomed (the retire fence lifts
// the freed node's cell versions above any such read version), which is
// VBR's "reclaim on epoch change" rule with the fence as the epoch.
//
// There are no per-node reservations: Protect is a no-op, like epochs.
// Unlike epochs, progress does not require every thread to pass a
// quiescent point — the clock is advanced by committing writers, by
// validating readers, and (so that read-heavy or idle periods cannot
// defer reclamation forever) by the scheme itself, which ticks the
// fence every scan threshold of retirements (see NewVBR). A stalled
// reader therefore cannot pin retirees: its transaction is simply
// aborted by the retire fence when it next validates (the
// checkpoint-and-rollback face of VBR lives in the structures' resume
// protocol, which restarts from the head when a held node's arena
// generation or dead mark changed).
//
// Version comparisons are wraparound-safe (signed difference), pinning
// behavior if a clock ever cycles the 64-bit space.
type VBR struct {
	retireList
	clock     func() uint64 // reads the fence (stm.Runtime.VersionFence)
	tick      func()        // advances it (stm.Runtime.TickVersionFence)
	tickEvery uint64
}

// NewVBR creates a version-based-reclamation domain over n's runtime: the
// clock is its version fence, and the scheme ticks the fence itself every
// scan threshold of retirements and during Flush, so drains terminate even
// when no writer is advancing it.
func NewVBR(n Nodes) Scheme {
	return &VBR{
		retireList: newRetireList(n.Threads, 0, n.Free),
		clock:      n.Runtime.VersionFence,
		tick:       n.Runtime.TickVersionFence,
		tickEvery:  uint64(n.scanThreshold()),
	}
}

// Traits implements Scheme: one Flush provably drains (see Flush).
func (v *VBR) Traits() Traits { return Traits{Deferred: true, DrainRounds: 1} }

// Retire implements Scheme: h is stamped with the current fence and
// queued; the fence self-ticks every tickEvery retirements and the list
// drains on every call.
func (v *VBR) Retire(tid int, h arena.Handle, stamp uint64) {
	if t := v.retire(tid, h, stamp, v.clock()); t.retired.Load()%v.tickEvery == 0 {
		v.tick()
	}
	v.drain(tid, stamp)
}

// Flush implements Scheme: drain, tick the fence, drain again. The tick
// makes the second drain complete — after it the fence is strictly
// greater than every previously observed fence value, hence greater
// than every stamp in the list — so a single Flush per thread leaves
// nothing deferred, under either clock policy.
func (v *VBR) Flush(tid int, stamp uint64) {
	v.drain(tid, stamp)
	v.tick()
	v.drain(tid, stamp)
}

// drain frees the caller's retirees whose fence stamp the clock, read
// once, has strictly passed. The comparison is a signed difference so a
// wrapped clock still orders correctly.
func (v *VBR) drain(tid int, stamp uint64) {
	now := v.clock()
	v.sweepOrdered(tid, stamp, func(_ []uint64, r retiree) bool { return int64(now-r.stamp) <= 0 })
}
