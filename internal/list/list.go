// Package list implements the paper's linked-list based concurrent sets
// (§4.1, §4.2): hand-over-hand transactional singly and doubly linked
// lists with revocable reservations, plus the three comparator modes the
// evaluation uses — whole-operation transactions (the HTM baseline),
// hand-over-hand with hazard-pointer deferred reclamation (TMHP), and
// hand-over-hand with transactional reference counting (REF) — and the
// post-2017 deferred comparators DESIGN.md §14 describes: hazard eras
// (TMHE) and version-based reclamation (TMVBR).
//
// All variants share one node layout and one arena, so differences in the
// figures come from the synchronization/reclamation mechanism, not from
// memory layout.
package list

import (
	"sync/atomic"

	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/obs"
	"hohtx/internal/pad"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Mode selects the synchronization/reclamation mechanism; see reclaim.Mode
// for what each value means.
type Mode = reclaim.Mode

// The modes the lists accept. ModeREF and ModeER are implemented here (the
// singly linked list and the hash table only); the rest are the seam's.
const (
	ModeRR    = reclaim.ModeRR
	ModeHTM   = reclaim.ModeHTM
	ModeTMHP  = reclaim.ModeTMHP
	ModeREF   = reclaim.ModeREF
	ModeER    = reclaim.ModeER
	ModeTMHE  = reclaim.ModeTMHE
	ModeTMVBR = reclaim.ModeTMVBR
)

// ModeByName resolves a variant label ("RR-V", "HTM", "TMHP", …) to the
// Config selector pair; doubly restricts it to what NewDoubly accepts.
func ModeByName(name string, doubly bool) (Mode, core.Kind, bool) {
	m, k, ok := reclaim.ModeByName(name)
	return m, k, ok && (m.Generic() || !doubly)
}

// node is the shared node layout. Every field is a transactional cell;
// recycled nodes are re-initialized with transactional stores only (see
// the arena package comment for why). The trailing pad keeps concurrent
// transactions on neighboring nodes from false-sharing version locks.
type node struct {
	key  stm.Word
	next stm.Word // arena.Handle bits; 0 = nil
	prev stm.Word // doubly linked list only
	dead stm.Word // TMHP/REF logical-deletion mark
	rc   stm.Word // REF reference count
	_    pad.Line
}

// threadState is the per-thread operation stamp used for reclamation-delay
// accounting, plus traversal scratch.
type threadState struct {
	ops   uint64
	marks []uint64 // ModeER: read marks of the last W spine nodes (nil otherwise)

	// Grow-only batch scratch (see applyBatch): the result and visit-order
	// buffers are reused across this thread's batches, so steady-state
	// Apply allocates nothing.
	batchOut   []sets.Result
	batchOrder []int
	_          pad.Line
}

// Config parameterizes list construction; see reclaim.Config. A zero Profile
// means the paper's list setting (serial fallback after 2 failed attempts)
// and a zero Window, W = 8.
type Config = reclaim.Config

// List is the singly linked set (Listing 5).
type List struct {
	rt *stm.Runtime
	ar *arena.Arena[node]
	// link is the mode's linking-and-reclamation mechanism (the seam): it
	// carries the traversal position between window transactions and takes
	// over every node the list allocates or unlinks.
	link        reclaim.Link
	traits      reclaim.Traits  // link.Traits(), read once
	ep          *reclaim.Epochs // ModeER only: brackets every operation
	canAscend   bool
	win         core.Window
	winOverride atomic.Int32
	head        arena.Handle
	threads     []threadState
	guard       reclaim.Guard
	obs         *obs.Domain
	scanWindows *obs.Histogram // window txs per Ascend (nil without Obs)
	scanRenavs  *obs.Histogram // re-navigations per Ascend (nil without Obs)
}

var _ sets.Set = (*List)(nil)
var _ sets.MemoryReporter = (*List)(nil)

// New constructs a singly linked list set.
func New(cfg Config) *List {
	cfg = cfg.WithDefaults(2, 8)
	l := &List{
		rt: stm.NewRuntime(cfg.Profile),
		ar: arena.New[node](arena.Config{
			Policy: cfg.ArenaPolicy, Threads: cfg.Threads,
			Guard: cfg.Guard, AccessCheck: cfg.GuardSink,
		}),
		win:     cfg.Window,
		threads: make([]threadState, cfg.Threads),
		// The reservation cursor (iter.go) is offered on the paper's own
		// modes only.
		canAscend: cfg.Mode == ModeRR || cfg.Mode == ModeHTM,
	}
	l.ar.SetRetire(func(n *node) { retireNode(n, l.rt.VersionFence()) })
	if cfg.Guard {
		l.ar.SetPoison(poisonNode)
	}
	l.guard = reclaim.GuardFor(l.ar)
	nodes := reclaim.Nodes{
		Config:  cfg,
		Dead:    func(h arena.Handle) *stm.Word { return &l.ar.At(h).dead },
		Live:    l.ar.Live,
		Free:    l.ar.Free,
		Runtime: l.rt, Guard: l.guard,
	}
	// The one place the list asks which mechanism it was given.
	switch cfg.Mode {
	case ModeREF:
		l.link = newRefLink(l)
	case ModeER:
		l.link = newERLink(l, nodes)
	default:
		l.link = reclaim.New(cfg.Mode, nodes)
	}
	l.traits = l.link.Traits()
	if l.traits.WholeOp {
		l.win = core.Window{} // unbounded: one transaction per op
	}
	if cfg.Obs != nil {
		l.obs = cfg.Obs
		l.scanWindows = cfg.Obs.Hist(obs.HistAscendWindows, "txs")
		l.scanRenavs = cfg.Obs.Hist(obs.HistAscendRenavs, "navs")
		l.rt.SetObserver(cfg.Obs.TxProbe())
		l.ar.SetObserver(cfg.Obs.AllocProbe())
	}
	l.head = l.newSentinel()
	return l
}

// newSentinel allocates a chain root. Sentinels are construction-time only
// (never shared before the constructor returns), so non-transactional Init
// is safe here and only here.
func (l *List) newSentinel() arena.Handle {
	h := l.ar.Alloc(0)
	n := l.ar.At(h)
	n.key.Init(0)
	n.next.Init(0)
	n.prev.Init(0)
	n.dead.Init(0)
	n.rc.Init(0)
	return h
}

// Runtime exposes the list's TM runtime (statistics, ablation benches).
func (l *List) Runtime() *stm.Runtime { return l.rt }

// ObsDomain returns the observability domain wired at construction (nil
// when Config.Obs was nil).
func (l *List) ObsDomain() *obs.Domain { return l.obs }

// SetWindow changes the hand-over-hand window size at runtime (0 restores
// the configured value). The paper proposes contention-driven window
// tuning as future work; this is the knob that enables it (see
// examples/tuner). Safe to call concurrently with operations: in-flight
// windows finish at their old size.
func (l *List) SetWindow(w int) { l.winOverride.Store(int32(w)) }

// window returns the effective window policy for a new transaction. A
// list whose operations are single transactions stays unbounded: it has no
// way to resume a cut window.
func (l *List) window() core.Window {
	win := l.win
	if o := l.winOverride.Load(); o > 0 && !win.Unbounded() {
		win.W = int(o)
	}
	return win
}

// Name implements sets.Set.
func (l *List) Name() string { return l.link.Name() }

// Register implements sets.Set.
func (l *List) Register(tid int) { l.link.Register(tid) }

// Finish implements sets.Set: it flushes deferred reclamation.
func (l *List) Finish(tid int) { l.link.Finish(tid, l.threads[tid].ops) }

// Lookup implements sets.Set.
func (l *List) Lookup(tid int, key uint64) bool {
	res, _ := l.apply(tid, key, false,
		func(tx *stm.Tx, prevH, currH arena.Handle) bool { return true },
		func(tx *stm.Tx, prevH, currH arena.Handle) bool { return false },
	)
	return res
}

// Insert implements sets.Set.
func (l *List) Insert(tid int, key uint64) bool {
	res, _ := l.apply(tid, key, false,
		func(tx *stm.Tx, prevH, currH arena.Handle) bool { return false },
		func(tx *stm.Tx, prevH, currH arena.Handle) bool {
			l.insertSingly(tx, tid, key, prevH, currH)
			return true
		},
	)
	return res
}

// Remove implements sets.Set.
func (l *List) Remove(tid int, key uint64) bool {
	res, _ := l.apply(tid, key, false,
		func(tx *stm.Tx, prevH, currH arena.Handle) bool {
			l.unlinkAndReclaim(tx, tid, prevH, currH)
			return true
		},
		func(tx *stm.Tx, prevH, currH arena.Handle) bool { return false },
	)
	return res
}

// allocNode allocates and transactionally initializes a node holding key
// with successor nextH and (for the doubly linked list) predecessor prevH,
// returning its handle. If the transaction aborts the node is returned to
// the arena.
func (l *List) allocNode(tx *stm.Tx, tid int, key uint64, nextH, prevH arena.Handle) arena.Handle {
	nh := l.ar.Alloc(tid)
	l.link.Born(tx, tid, nh)
	n := l.ar.At(nh)
	// Transactional stores: the slot may be recycled, and some doomed
	// reader may still hold a stale handle to it (see package arena).
	n.key.Store(tx, key)
	n.next.Store(tx, uint64(nextH))
	n.prev.Store(tx, uint64(prevH))
	n.dead.Store(tx, 0)
	n.rc.Store(tx, 0)
	return nh
}

// unlinkAndReclaim removes currH (whose predecessor is prevH) from the
// list and hands it to the link — for ModeRR that is Listing 5's λfound
// for Remove: unlink, Revoke, then free at the commit point.
func (l *List) unlinkAndReclaim(tx *stm.Tx, tid int, prevH, currH arena.Handle) {
	l.ar.At(prevH).next.Store(tx, uint64(l.guard.Link(tx, tid, currH, l.ar.At(currH).next.Load(tx))))
	l.link.Unlinked(tx, tid, currH, l.threads[tid].ops)
}

// LiveNodes implements sets.MemoryReporter (includes the head sentinel).
func (l *List) LiveNodes() uint64 { return l.ar.Stats().Live }

// DeferredNodes implements sets.MemoryReporter.
func (l *List) DeferredNodes() uint64 { return l.link.Stats().Deferred }

// ReclaimStats exposes the deferred-reclamation counters (zero for the
// precise modes).
func (l *List) ReclaimStats() reclaim.Stats { return l.link.Stats() }

// ReclaimTraits reports the mode's fixed reclamation properties.
func (l *List) ReclaimTraits() reclaim.Traits { return l.traits }

// TMStats returns the full TM statistics snapshot (per-cause aborts,
// clock and commit-lock counters).
func (l *List) TMStats() stm.Stats { return l.rt.Stats() }

// Snapshot implements sets.Set. Callers must ensure quiescence.
func (l *List) Snapshot() []uint64 {
	var out []uint64
	for h := arena.Handle(l.ar.At(l.head).next.Raw()); !h.IsNil(); {
		n := l.ar.At(h)
		out = append(out, n.key.Raw())
		h = arena.Handle(n.next.Raw())
	}
	return out
}
