package reclaim

import (
	"hohtx/internal/arena"
	"hohtx/internal/obs"
	"hohtx/internal/pad"
)

// vbrRetiree is one logically deleted node stamped with the version
// fence current at its retirement.
type vbrRetiree struct {
	h     arena.Handle
	rv    uint64
	stamp uint64
}

type vbrThread struct {
	// pending is a FIFO of retirees in nondecreasing fence order; head
	// indexes the first unfreed entry.
	pending   []vbrRetiree
	head      int
	sinceTick int
	_         pad.Line
}

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
// fence every TickEvery retirements via the Tick callback. A stalled
// reader therefore cannot pin retirees: its transaction is simply
// aborted by the retire fence when it next validates (the
// checkpoint-and-rollback face of VBR lives in the structures' resume
// protocol, which restarts from the head when a held node's arena
// generation or dead mark changed).
//
// Version comparisons are wraparound-safe (signed difference), pinning
// behavior if a clock ever cycles the 64-bit space.
type VBR struct {
	observer
	threads   []vbrThread
	stats     []threadStats
	free      FreeFunc
	clock     func() uint64
	tick      func()
	tickEvery int
}

// VBRConfig parameterizes NewVBR.
type VBRConfig struct {
	Threads int // number of participating threads (required)
	// Clock reads the current version fence (stm.Runtime.VersionFence).
	Clock func() uint64
	// Tick advances the fence (stm.Runtime.TickVersionFence); called
	// every TickEvery retirements and during Flush so drains terminate
	// even when no writer is advancing the clock.
	Tick func()
	// TickEvery is the retire count between self-ticks; default 64
	// (DefaultScanThreshold, matching the other schemes' batch sizes).
	TickEvery int
	Free      FreeFunc
}

// NewVBR creates a version-based-reclamation domain.
func NewVBR(cfg VBRConfig) *VBR {
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = DefaultScanThreshold
	}
	return &VBR{
		threads:   make([]vbrThread, cfg.Threads),
		stats:     make([]threadStats, cfg.Threads),
		free:      cfg.Free,
		clock:     cfg.Clock,
		tick:      cfg.Tick,
		tickEvery: cfg.TickEvery,
	}
}

// Enter and Exit implement Scheme: VBR has no operation bracket.
func (v *VBR) Enter(int) {}
func (v *VBR) Exit(int)  {}

// Name implements Scheme.
func (v *VBR) Name() string { return "VBR" }

// Traits implements Scheme: one Flush provably drains (see Flush).
func (v *VBR) Traits() Traits { return Traits{Deferred: true, DrainRounds: 1} }

// Protect is a no-op: VBR readers are protected by version validation,
// not per-node reservations.
func (v *VBR) Protect(tid, slot int, h arena.Handle) arena.Handle { return h }

// ClearSlots is a no-op for VBR.
func (v *VBR) ClearSlots(tid int) {}

// Retire implements Scheme: h is stamped with the current fence and
// queued; the fence self-ticks every TickEvery retirements and the
// queue drains on every call.
func (v *VBR) Retire(tid int, h arena.Handle, stamp uint64) {
	t := &v.threads[tid]
	t.pending = append(t.pending, vbrRetiree{h: h, rv: v.clock(), stamp: stamp})
	v.stats[tid].noteRetire()
	v.probe.Note(tid, obs.EvRetire, uint64(h))
	t.sinceTick++
	if t.sinceTick >= v.tickEvery {
		t.sinceTick = 0
		v.tick()
	}
	v.drain(tid, stamp)
}

// Flush implements Scheme: drain, tick the fence, drain again. The tick
// makes the second drain complete — after it the fence is strictly
// greater than every previously observed fence value, hence greater
// than every stamp in the queue — so a single Flush per thread leaves
// nothing deferred, under either clock policy.
func (v *VBR) Flush(tid int, stamp uint64) {
	v.drain(tid, stamp)
	v.tick()
	v.drain(tid, stamp)
}

// drain frees the caller's retirees whose fence stamp the clock has
// strictly passed. The comparison is a signed difference so a wrapped
// clock still orders correctly.
func (v *VBR) drain(tid int, stamp uint64) {
	if sp := v.reclaimSpan(tid); sp != nil {
		t0 := obs.Now()
		defer func() { sp.Add(obs.SpanReclaim, uint64(obs.Now()-t0)) }()
	}
	t := &v.threads[tid]
	now := v.clock()
	st := &v.stats[tid]
	freedAny := false
	for t.head < len(t.pending) && int64(now-t.pending[t.head].rv) > 0 {
		r := t.pending[t.head]
		v.free(tid, r.h)
		st.noteFree(stamp - r.stamp)
		v.noteFreeEv(tid, stamp-r.stamp)
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
func (v *VBR) Stats() Stats { return sumStats(v.stats) }

var _ Scheme = (*VBR)(nil)
