package reclaim

import (
	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/pad"
	"hohtx/internal/stm"
)

// The linking-and-reclamation seam.
//
// A hand-over-hand operation is a chain of window transactions (Listing 5),
// and stm.Runtime.Chain is the loop that runs them: a structure's engine is
// one window that returns where it stops and whether another follows. What
// carries the traversal position from one transaction to the next, and
// what happens to a node a transaction unlinks, is the mechanism under
// comparison — a revocable reservation, a hazard pointer, an era, nothing
// at all — and it is a parameter of the traversal, not a property of the
// structure. Link is that parameter. A structure describes its nodes once
// (Nodes) and runs its windows on the chassis (chassis.go), which holds
// the one Link. The position protocol is the chassis's alone; a structure
// calls only the last three:
//
//	Begin     once as an operation starts, End once as it ends — the
//	          chassis's Op, Batch and Cursor make the calls, End deferred
//	          (the dds/bclx managers' op_begin/op_end)
//	Resume    at the top of every window: where does it start, and does
//	          the thread still hold that position?
//	Hold      where a window stops with somewhere to stop at: attach to
//	          it, release the previous hold
//	Drop      where a window stops with nowhere: at operation end, or
//	          when a resumed position is abandoned
//	Born      right after allocating a node (through Chassis.Alloc)
//	Unlinked  right after unlinking one (through Chassis.Unlinked)
//	Revoke    for a node that stays linked but must not be resumed from
//
// Three implementations serve every structure: precise (the six revocable
// reservations: revoke, free at commit), wholeOp (HTM: nothing to link,
// free at commit) and deferred (one Scheme: mark dead, retire at commit).
// The list adds two of its own for the modes that need its node layout.
//
// The deferred link's protocols, stated once:
//
// Pinning schemes (Traits.Pins: hazard pointers, hazard eras). A window
// ends by publishing a hazard on the new start node and *then*
// transactionally loading its dead flag. Atomics are sequentially
// consistent, so if a concurrent remover's hazard scan missed our
// publication, the scan (and hence the remover's commit, which precedes
// its retire) happened before our load — which must then observe a bumped
// version, fail snapshot extension against the unlink write we read past,
// and abort this window. Either the node is protected or we never resume
// from it. Hazard eras run the same protocol with "hazard" read as "era
// reservation": the published era E satisfies birth <= E (the node was
// allocated before we observed it; eras only grow) and, when a remover's
// scan sees the publication, del >= E (the retire stamps an era at least
// as new), so E lies inside the retiree's lifetime interval and the scan
// keeps it. If the scan instead missed the publication, the ordering
// argument applies unchanged and the dead load kills the resume. On
// resume the held node's memory is pinned, so its dead flag is
// trustworthy: nonzero means it was removed since our last window.
//
// Schemes that pin nothing (VBR, epochs). The held start node can be
// freed — and its arena slot recycled — between windows. Resume therefore
// revalidates: check arena generation liveness, load the dead flag, then
// re-check liveness. A free between the two checks either poisons the
// load's version (the retire fence lifts the cell above any read version
// that could still validate, so the transaction cannot commit a stale
// read) or is caught by the second liveness check before the traversal
// trusts a wrong-incarnation value. Once a live, not-dead read of the
// correct incarnation is pinned in the read set, any later free dooms the
// transaction at validation — the fence is what makes "no reservation at
// all" sound here, exactly as in VBR's checkpoint scheme. The bracketed
// load is optimistic by design — it may read recycled, type-stable memory,
// and the second liveness check is its validation — so it does not go
// through the guard: a poison or nonzero value simply means "not held".
// (Routing it through Guard.Word armed a commit-gated use-after-free
// report before the second check could discard the value; that was the
// TMVBR false positive EXPERIMENTS.md records.)

// Link is the seam. Every method except Register, Begin, End, Finish,
// Stats, Name and Traits runs inside the caller's transaction; tid
// identifies the calling thread as everywhere else.
type Link interface {
	// Name is the variant label ("RR-V", "HTM", "TMHP", …).
	Name() string
	// Traits reports the mechanism's fixed properties.
	Traits() Traits
	// Register announces that tid will use the link (sets.Set.Register).
	Register(tid int)
	// Begin and End bracket one of tid's operations, outside its
	// transactions: the deferred link's are its Scheme's Enter and Exit
	// (ER's epoch critical section); the other links' are empty.
	Begin(tid int)
	End(tid int)
	// Resume reports where tid's window starts: the handle and word of its
	// last committed Hold, if the thread still holds it. Not held means
	// start from the root.
	Resume(tx *stm.Tx, tid int) (h arena.Handle, word uint64, held bool)
	// Hold attaches tid to h so its next window resumes there, releasing
	// the previous hold; held is what this transaction's Resume reported.
	// word is the caller's to define (the skiplist's resume level) and
	// comes back from Resume. Like everything transactional it takes
	// effect only if the attempt commits.
	Hold(tx *stm.Tx, tid int, held bool, h arena.Handle, word uint64)
	// Drop releases tid's hold, at operation end or to abandon a resumed
	// position; held as for Hold.
	Drop(tx *stm.Tx, tid int, held bool)
	// Born announces a node this attempt just allocated, before the attempt
	// writes to it: the attempt's snapshot is brought past the slot's last
	// free (freer.born), scheme-side birth state is stamped, and the node
	// goes back to the arena if the attempt aborts.
	Born(tx *stm.Tx, tid int, h arena.Handle)
	// Unlinked takes over a node this transaction just unlinked: no later
	// window may resume from it, and its memory is reclaimed as the
	// mechanism allows (at commit, or retired at commit). stamp is the
	// thread's operation count, for delay accounting.
	Unlinked(tx *stm.Tx, tid int, h arena.Handle, stamp uint64)
	// Revoke makes every hold on h fail its next Resume while h stays
	// linked (the internal tree's key moves). Only links that are not
	// Deferred support it.
	Revoke(tx *stm.Tx, h arena.Handle)
	// Finish flushes tid's deferred reclamation (sets.Set.Finish).
	Finish(tid int, stamp uint64)
	// Stats reports the deferred-reclamation counters (zero when precise).
	Stats() Stats
}

// Nodes is what a structure tells the seam about itself, once.
type Nodes struct {
	// Config is the structure's own, defaults filled in: the seam reads its
	// Threads, ScanThreshold (see scanThreshold), reservation selectors and
	// Obs, and epochs read its Guard switch as their bracket check. (That
	// switch is shadowed by the Guard below, which is what it built.)
	Config
	// Dead returns the logical-deletion cell of the node named by h. It
	// must be callable on a freed or recycled handle (arena memory is
	// type-stable).
	Dead func(h arena.Handle) *stm.Word
	// Live and Free are the node arena's.
	Live func(h arena.Handle) bool
	Free FreeFunc
	// Runtime is the structure's TM runtime (VBR's epoch is its version
	// fence).
	Runtime *stm.Runtime
	// Guard is the structure's sanitizer (see GuardFor).
	Guard Guard
}

// scanThreshold is the batch of the schemes built from a Nodes (HE's scan,
// VBR's self-tick, the epochs' advance attempt): Config.ScanThreshold, or
// DefaultScanThreshold when that is not set.
func (n Nodes) scanThreshold() int {
	if n.ScanThreshold > 0 {
		return n.ScanThreshold
	}
	return DefaultScanThreshold
}

// New builds the link for a generic mode; it panics for a mode that needs
// a structure-local implementation (Mode.Generic reports which).
func New(mode Mode, n Nodes) Link {
	switch mode {
	case ModeRR:
		return newPrecise(n)
	case ModeHTM:
		return &wholeOp{newFreer(n)}
	}
	if !mode.Generic() {
		panic("reclaim: mode " + mode.String() + " has no generic link")
	}
	return NewDeferred(mode.String(), mode.Scheme(n), n)
}

// freer is what every link does with the arena directly: take a node an
// attempt allocated, and hand one back, either because that attempt aborted
// or because the commit that unlinked it is the reclamation point. Like
// every hook below, freeHook is a function value bound once per link and
// scheduled with stm.OnCommitCall/OnAbortCall — (tid, handle, word) travel
// in the inline argument slots, so no window allocates a closure.
type freer struct {
	freeHook func(a, b, c uint64) // free(tid a, handle b)
	dead     func(arena.Handle) *stm.Word
}

func newFreer(n Nodes) freer {
	return freer{func(a, b, _ uint64) { n.Free(int(a), arena.Handle(b)) }, n.Dead}
}

// born takes over a node the attempt just allocated and has not written to.
//
// The arena is not transactional: it can hand out a slot that a commit newer
// than the attempt's snapshot unlinked and freed, and the attempt — doomed,
// but not yet told — may still reach that node through links it has read.
// Initializing the slot then shadows the node's cells with the attempt's own
// pending writes, which no read validates; a traversal that goes on after
// the allocation (a batch's) can walk into them and, where the new node's
// successor is the stale handle of the same slot, never leave. Every free
// lifts all of a node's cell versions to the retire fence, so reading one
// cell first puts that fence in front of the snapshot: a free the snapshot
// predates forces an extension, which fails on the rewritten link.
func (f *freer) born(tx *stm.Tx, tid int, h arena.Handle) {
	tx.OnAbortCall(f.freeHook, uint64(tid), uint64(h), 0)
	f.dead(h).Load(tx) // may abort: after the hook that gives the node back
}

func (f *freer) freeAtCommit(tx *stm.Tx, tid int, h arena.Handle) {
	tx.OnCommitCall(f.freeHook, uint64(tid), uint64(h), 0)
}

// heldWord is one thread's committed hold word.
type heldWord struct {
	v uint64
	_ pad.Line
}

// precise links windows with a revocable reservation and reclaims at the
// unlinking commit (Listing 5's λfound for Remove: unlink, Revoke, free).
//
// Resume and Hold run once per window, so what they cost is what a window
// costs beyond its node visits. RR-V — the kind whose windows write nothing
// shared — is therefore called through its concrete type (v), which lets
// the compiler see through Get and Reserve, observed or not; the other
// kinds go through the interface (rr).
type precise struct {
	freer
	rr       core.Reservation
	v        *core.V // rr's concrete value when it is RR-V, else nil
	name     string  // the kind's label, read once
	strict   bool    // the kind's strictness, read once
	words    []heldWord
	wordHook func(a, b, c uint64) // words[tid a] = b
}

func newPrecise(n Nodes) *precise {
	rr := core.New(n.RRKind, core.Config{Threads: n.Threads})
	p := &precise{freer: newFreer(n), rr: rr, words: make([]heldWord, n.Threads),
		name: n.RRKind.String(), strict: n.RRKind.Strict()}
	p.v, _ = rr.(*core.V)
	p.wordHook = func(a, b, _ uint64) { p.words[int(a)].v = b }
	return p
}

func (p *precise) Name() string     { return p.name }
func (p *precise) Traits() Traits   { return Traits{DrainRounds: 1, StrictLoss: p.strict} }
func (p *precise) Register(tid int) { p.rr.Register(tid) }
func (*precise) Begin(int)          {}
func (*precise) End(int)            {}

func (p *precise) Resume(tx *stm.Tx, tid int) (arena.Handle, uint64, bool) {
	var r uint64
	if p.v != nil {
		r = p.v.Get(tx, tid)
	} else {
		r = p.rr.Get(tx, tid)
	}
	if r == 0 {
		// Nil, released, revoked, or (relaxed) spuriously lost.
		return arena.Nil, 0, false
	}
	return arena.Handle(r), p.words[tid].v, true
}

func (p *precise) Hold(tx *stm.Tx, tid int, held bool, h arena.Handle, word uint64) {
	// A relaxed Release only clears R_t, which Reserve overwrites in the
	// same transaction; a strict one also takes the thread out of the old
	// reference's bucket, which Reserve does not.
	if held && p.strict {
		p.rr.Release(tx, tid)
	}
	if p.v != nil {
		p.v.Reserve(tx, tid, uint64(h))
	} else {
		p.rr.Reserve(tx, tid, uint64(h))
	}
	if word != p.words[tid].v {
		tx.OnCommitCall(p.wordHook, uint64(tid), word, 0)
	}
}

func (p *precise) Drop(tx *stm.Tx, tid int, held bool) {
	if held {
		p.rr.Release(tx, tid)
	}
}

func (p *precise) Born(tx *stm.Tx, tid int, h arena.Handle) { p.born(tx, tid, h) }

func (p *precise) Unlinked(tx *stm.Tx, tid int, h arena.Handle, _ uint64) {
	p.rr.Revoke(tx, uint64(h))
	p.freeAtCommit(tx, tid, h)
}

func (p *precise) Revoke(tx *stm.Tx, h arena.Handle) { p.rr.Revoke(tx, uint64(h)) }
func (p *precise) Finish(int, uint64)                {}
func (p *precise) Stats() Stats                      { return Stats{} }

// wholeOp is the link of a structure whose every operation is one
// transaction: no position ever outlives a transaction, so there is
// nothing to resume, hold or revoke, and an unlinked node is free at the
// commit point.
type wholeOp struct{ freer }

func (*wholeOp) Name() string   { return ModeHTM.String() }
func (*wholeOp) Traits() Traits { return Traits{DrainRounds: 1, StrictLoss: true, WholeOp: true} }
func (*wholeOp) Register(int)   {}
func (*wholeOp) Begin(int)      {}
func (*wholeOp) End(int)        {}

func (*wholeOp) Resume(*stm.Tx, int) (arena.Handle, uint64, bool) { return arena.Nil, 0, false }

func (*wholeOp) Hold(*stm.Tx, int, bool, arena.Handle, uint64) {
	panic("reclaim: a whole-operation link cannot hold a position (its windows must be unbounded)")
}

func (*wholeOp) Drop(*stm.Tx, int, bool) {}

func (w *wholeOp) Born(tx *stm.Tx, tid int, h arena.Handle) { w.born(tx, tid, h) }

func (w *wholeOp) Unlinked(tx *stm.Tx, tid int, h arena.Handle, _ uint64) {
	w.freeAtCommit(tx, tid, h)
}

func (*wholeOp) Revoke(*stm.Tx, arena.Handle) {}
func (*wholeOp) Finish(int, uint64)           {}
func (*wholeOp) Stats() Stats                 { return Stats{} }

// holdState is one thread's committed hold under the deferred link.
type holdState struct {
	start  arena.Handle // resume position (Nil = start from the root)
	word   uint64
	parity int // pinning schemes: slot alternation, so the new hold is published before the old one is dropped
	_      pad.Line
}

// deferred links windows with a thread-local start handle and reclaims
// through a Scheme; see the protocol note atop this file.
type deferred struct {
	freer   // allocations only: unlinked nodes go through sch
	name    string
	sch     Scheme
	traits  Traits
	live    func(arena.Handle) bool
	guard   Guard
	threads []holdState

	retireHook func(a, b, c uint64) // sch.Retire(tid a, handle b, stamp c)
	holdHook   func(a, b, c uint64) // commit a hold: resume at handle b with word c
	dropHook   func(a, b, c uint64) // commit a drop
}

// NewDeferred builds the deferred link over sch, labelled name. New calls
// it for the table's modes; the list calls it for ER, over the epochs whose
// Enter and Exit are that mode's operation bracket.
func NewDeferred(name string, sch Scheme, n Nodes) Link {
	d := &deferred{
		freer: newFreer(n), name: name, sch: sch, traits: sch.Traits(),
		live: n.Live, guard: n.Guard,
		threads: make([]holdState, n.Threads),
	}
	d.traits.StrictLoss = true // the dead mark and the generation are definitive
	d.retireHook = func(a, b, c uint64) { sch.Retire(int(a), arena.Handle(b), c) }
	d.holdHook = func(a, b, c uint64) {
		ts := &d.threads[int(a)]
		ts.start, ts.word = arena.Handle(b), c
		if d.traits.Pins {
			sch.Protect(int(a), (ts.parity&1)^1, 0) // drop the previous window's slot
			ts.parity++
		}
	}
	d.dropHook = func(a, _, _ uint64) {
		d.threads[int(a)].start = arena.Nil
		sch.ClearSlots(int(a))
	}
	if n.Obs != nil {
		sch.SetObserver(n.Obs.TxProbe())
		n.Obs.Gauge("deferred_depth", func() uint64 { return sch.Stats().Deferred })
		n.Obs.Gauge("peak_deferred", func() uint64 { return sch.Stats().PeakDeferred })
	}
	return d
}

func (d *deferred) Name() string   { return d.name }
func (d *deferred) Traits() Traits { return d.traits }
func (d *deferred) Register(int)   {}
func (d *deferred) Begin(tid int)  { d.sch.Enter(tid) }
func (d *deferred) End(tid int)    { d.sch.Exit(tid) }

func (d *deferred) Resume(tx *stm.Tx, tid int) (arena.Handle, uint64, bool) {
	ts := &d.threads[tid]
	s := ts.start
	if s.IsNil() {
		return arena.Nil, 0, false
	}
	if d.traits.Pins {
		if d.guard.Word(tx, tid, s, d.dead(s).Load(tx)) != 0 {
			return arena.Nil, 0, false
		}
	} else if !d.live(s) || d.dead(s).Load(tx) != 0 || !d.live(s) {
		// The plain Load is deliberate; see the protocol note.
		return arena.Nil, 0, false
	}
	return s, ts.word, true
}

func (d *deferred) Hold(tx *stm.Tx, tid int, _ bool, h arena.Handle, word uint64) {
	if d.traits.Pins {
		d.sch.Protect(tid, d.threads[tid].parity&1, h)
		// Ordering re-check; see the protocol note.
		_ = d.guard.Word(tx, tid, h, d.dead(h).Load(tx))
	}
	tx.OnCommitCall(d.holdHook, uint64(tid), uint64(h), word)
}

func (d *deferred) Drop(tx *stm.Tx, tid int, _ bool) {
	// Unconditional: an aborted attempt's Hold may have left a slot
	// published that only ClearSlots takes down.
	tx.OnCommitCall(d.dropHook, uint64(tid), 0, 0)
}

func (d *deferred) Born(tx *stm.Tx, tid int, h arena.Handle) {
	d.sch.Born(h)
	d.born(tx, tid, h)
}

func (d *deferred) Unlinked(tx *stm.Tx, tid int, h arena.Handle, stamp uint64) {
	d.dead(h).Store(tx, 1)
	tx.OnCommitCall(d.retireHook, uint64(tid), uint64(h), stamp)
}

func (d *deferred) Revoke(*stm.Tx, arena.Handle) {
	panic("reclaim: " + d.name + " cannot revoke a node that stays linked")
}

func (d *deferred) Finish(tid int, stamp uint64) {
	d.sch.ClearSlots(tid)
	d.sch.Flush(tid, stamp)
}

func (d *deferred) Stats() Stats { return d.sch.Stats() }
