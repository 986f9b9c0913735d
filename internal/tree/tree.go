// Package tree implements the paper's unbalanced binary search trees
// (§4.3): an internal tree (values in every node) and an external tree
// (values in leaves, routers inside), both with hand-over-hand
// transactions and revocable reservations, plus the whole-operation
// transaction baseline (HTM) and — for the external tree, as in the
// paper's Figure 7 — a hazard-pointer variant (TMHP). The external tree
// additionally supports the post-2017 deferred schemes of the extended
// reclamation matrix (DESIGN.md §14): hazard eras (TMHE) and
// version-based reclamation (TMVBR). Which mechanism a tree runs is the
// link it was built with (internal/reclaim); the code here never asks.
//
// The delicate part is the internal tree's removal of a node with two
// children: the victim's value is overwritten with its successor l (the
// leftmost descendant of its right child) and the successor's node is
// extracted. Because l's value moves *upward*, any traversal that reserved
// a node on the path from the victim to l could resume below l's new
// position and wrongly conclude l is absent; the remover therefore revokes
// every node on that path (victim and extracted node included), forcing
// those traversals to restart from the root (§4.3, last paragraph).
package tree

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

// Mode selects the synchronization/reclamation mechanism; see reclaim.Mode.
type Mode = reclaim.Mode

// The modes the trees take: the two precise ones on both trees and, on the
// external tree only (the paper knows of no internal trees using hazard
// pointers), every deferred scheme the seam serves.
const (
	ModeRR    = reclaim.ModeRR
	ModeHTM   = reclaim.ModeHTM
	ModeTMHP  = reclaim.ModeTMHP
	ModeTMHE  = reclaim.ModeTMHE
	ModeTMVBR = reclaim.ModeTMVBR
)

// ModeByName resolves a variant label ("RR-V", "HTM", "TMHP", …) to the
// Config selector pair for the external tree, or — with internal set —
// the internal tree.
func ModeByName(name string, internal bool) (Mode, core.Kind, bool) {
	m, k, ok := reclaim.ModeByName(name)
	return m, k, ok && m.Generic() && (!internal || m <= ModeHTM)
}

// sentinel keys; user keys must be below sent0.
const (
	sent0 = ^uint64(0) - 2 // external tree: initial empty leaf
	sent1 = ^uint64(0) - 1 // external tree: inner sentinel router/leaf
	sent2 = ^uint64(0)     // roots
)

// MaxKey is the largest user key the trees accept.
const MaxKey = sent0 - 1

// node is the shared node layout for both trees. In the external tree a
// node is a leaf iff its left child is Nil.
type node struct {
	key   stm.Word
	left  stm.Word // arena.Handle bits
	right stm.Word
	dead  stm.Word // the deferred modes' logical-deletion mark
	_     pad.Line
}

type threadState struct {
	ops uint64
	// batchOut is Apply's grow-only result buffer: the returned slice is
	// valid until this thread's next Apply (the list's contract, which the
	// serving layer already honours).
	batchOut []sets.Result
	_        pad.Line
}

// batchResults returns tid's result buffer sized for n ops.
func (b *base) batchResults(tid, n int) []sets.Result {
	ts := &b.threads[tid]
	if cap(ts.batchOut) < n {
		ts.batchOut = make([]sets.Result, n)
	}
	return ts.batchOut[:n]
}

// Config parameterizes tree construction; see reclaim.Config. A zero Profile
// means the paper's tree setting (serial fallback after 8 attempts, §5) and
// a zero Window, W = 16.
type Config = reclaim.Config

// base carries the machinery shared by the internal and external trees.
type base struct {
	rt *stm.Runtime
	ar *arena.Arena[node]
	// link is the mode's linking-and-reclamation mechanism (the seam; see
	// internal/reclaim/link.go).
	link        reclaim.Link
	win         core.Window
	winOverride atomic.Int32
	threads     []threadState
	guard       reclaim.Guard
	obs         *obs.Domain
}

func newBase(cfg Config) *base {
	b := &base{
		rt: stm.NewRuntime(cfg.Profile),
		ar: arena.New[node](arena.Config{
			Policy: cfg.ArenaPolicy, Threads: cfg.Threads,
			Guard: cfg.Guard, AccessCheck: cfg.GuardSink,
		}),
		win:     cfg.Window,
		threads: make([]threadState, cfg.Threads),
	}
	b.ar.SetRetire(func(n *node) { retireNode(n, b.rt.VersionFence()) })
	if cfg.Guard {
		b.ar.SetPoison(poisonNode)
	}
	b.guard = reclaim.GuardFor(b.ar)
	b.link = reclaim.New(cfg.Mode, reclaim.Nodes{
		Config:  cfg,
		Dead:    func(h arena.Handle) *stm.Word { return &b.ar.At(h).dead },
		Live:    b.ar.Live,
		Free:    b.ar.Free,
		Runtime: b.rt, Guard: b.guard,
	})
	if b.link.Traits().WholeOp {
		b.win = core.Window{} // unbounded: one transaction per op
	}
	if cfg.Obs != nil {
		b.obs = cfg.Obs
		b.rt.SetObserver(cfg.Obs.TxProbe())
		b.ar.SetObserver(cfg.Obs.AllocProbe())
	}
	return b
}

// requirePrecise panics if the tree was built over deferred reclamation,
// which who (named in the message) cannot run on.
func (b *base) requirePrecise(who string) {
	if b.link.Traits().Deferred {
		panic("tree: " + who + " requires ModeRR or ModeHTM, not " + b.link.Name())
	}
}

// ObsDomain returns the attached observability domain (nil when detached).
func (b *base) ObsDomain() *obs.Domain { return b.obs }

// initNode allocates a sentinel-phase node with non-transactional Init
// (construction only: the node has never been shared).
func (b *base) initNode(key uint64, left, right arena.Handle) arena.Handle {
	h := b.ar.Alloc(0)
	n := b.ar.At(h)
	n.key.Init(key)
	n.left.Init(uint64(left))
	n.right.Init(uint64(right))
	n.dead.Init(0)
	return h
}

// allocNode allocates and transactionally initializes a node (recycled
// slots require transactional stores; see package arena).
func (b *base) allocNode(tx *stm.Tx, tid int, key uint64, left, right arena.Handle) arena.Handle {
	h := b.ar.Alloc(tid)
	b.link.Born(tx, tid, h)
	n := b.ar.At(h)
	n.key.Store(tx, key)
	n.left.Store(tx, uint64(left))
	n.right.Store(tx, uint64(right))
	n.dead.Store(tx, 0)
	return h
}

// Runtime exposes the tree's TM runtime.
func (b *base) Runtime() *stm.Runtime { return b.rt }

// SetWindow changes the hand-over-hand window size at runtime (0 restores
// the configured value); see the identically named method in package list.
func (b *base) SetWindow(w int) { b.winOverride.Store(int32(w)) }

// window returns the effective window policy for a new transaction.
func (b *base) window() core.Window {
	win := b.win
	if o := b.winOverride.Load(); o > 0 && !win.Unbounded() {
		win.W = int(o)
	}
	return win
}

// Name implements part of sets.Set.
func (b *base) Name() string { return b.link.Name() }

// Register implements part of sets.Set.
func (b *base) Register(tid int) { b.link.Register(tid) }

// Finish implements part of sets.Set.
func (b *base) Finish(tid int) { b.link.Finish(tid, b.threads[tid].ops) }

// TMStats returns the full TM statistics snapshot (per-cause aborts,
// clock and commit-lock counters).
func (b *base) TMStats() stm.Stats { return b.rt.Stats() }

// ReclaimStats exposes the deferred-reclamation counters (zero for the
// precise modes).
func (b *base) ReclaimStats() reclaim.Stats { return b.link.Stats() }

// ReclaimTraits reports the mode's fixed reclamation properties.
func (b *base) ReclaimTraits() reclaim.Traits { return b.link.Traits() }

// LiveNodes implements sets.MemoryReporter.
func (b *base) LiveNodes() uint64 { return b.ar.Stats().Live }

// DeferredNodes implements sets.MemoryReporter.
func (b *base) DeferredNodes() uint64 { return b.link.Stats().Deferred }

// windowStart resolves the window's starting node: the thread's held
// position if its link still has one, the root otherwise.
func (b *base) windowStart(tx *stm.Tx, tid int, root arena.Handle) (arena.Handle, bool) {
	if h, _, held := b.link.Resume(tx, tid); held {
		return h, true
	}
	return root, false
}

// reclaimNode hands a node this transaction unlinked to the link.
func (b *base) reclaimNode(tx *stm.Tx, tid int, h arena.Handle) {
	b.link.Unlinked(tx, tid, h, b.threads[tid].ops)
}
