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
// Each tree has one descent, its step: a window that walks from where the
// chassis starts it and returns where it stops. Lookup, Insert and Remove
// run it window by window under the chassis's Op, which holds or drops the
// position between windows; Apply runs the same step uncut from the root,
// once per op in arrival order, under the chassis's Apply; and Pass runs it
// from the root once per op in arrival order under the chassis's Pass,
// window by window, the ops sharing windows. Keys above MaxKey are the
// sentinels' and absent to every operation (Insert panics on them).
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
	"hohtx/internal/arena"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// sentinel keys; user keys must be below sent0.
const (
	sent0 = ^uint64(0) - 2 // external tree: initial empty leaf
	sent1 = ^uint64(0) - 1 // external tree: inner sentinel router/leaf
	sent2 = ^uint64(0)     // roots
)

// MaxKey is the largest user key the trees accept.
const MaxKey = sent0 - 1

// node is the shared node layout for both trees. In the external tree a
// node is a leaf iff its left child is Nil. It has no cache-line pad: the
// STM detects conflicts per Word, so a slot is its cells, 72 B
// (TestNodeLayout).
type node struct {
	key   stm.Word
	left  stm.Word // arena.Handle bits
	right stm.Word
	dead  stm.Word // the deferred modes' logical-deletion mark
}

// words is the node's one enumeration of its cells (reclaim.Layout.Words).
func (n *node) words(f func(*stm.Word, uint64), x uint64) {
	f(&n.key, x)
	f(&n.left, x)
	f(&n.right, x)
	f(&n.dead, x)
}

// Config parameterizes tree construction; see reclaim.Config. A zero Profile
// means the paper's tree setting (serial fallback after 8 attempts, §5) and
// a zero Window, W = 16.
type Config = reclaim.Config

// base is what the internal and external trees share: the chassis and the
// node constructors.
type base struct {
	reclaim.Chassis[node]
}

func newBase(cfg Config, perKey uint64) *base {
	b := new(base)
	b.Init(cfg.WithDefaults(8, 16), reclaim.Layout[node]{
		Words:  (*node).words,
		Dead:   func(h arena.Handle) *stm.Word { return &b.Ar.At(h).dead },
		PerKey: perKey,
	})
	return b
}

// requirePrecise panics if the tree was built over deferred reclamation,
// which who (named in the message) cannot run on.
func (b *base) requirePrecise(who string) {
	if b.Traits.Deferred {
		panic("tree: " + who + " requires ModeRR or ModeHTM, not " + b.Name())
	}
}

// initNode allocates a sentinel-phase node (construction only: the node has
// never been shared).
func (b *base) initNode(key uint64, left, right arena.Handle) arena.Handle {
	h, n := b.NewSentinel()
	n.key.Init(key)
	n.left.Init(uint64(left))
	n.right.Init(uint64(right))
	return h
}

// allocNode allocates and transactionally initializes a node.
func (b *base) allocNode(tx *stm.Tx, tid int, key uint64, left, right arena.Handle) arena.Handle {
	h, n := b.Alloc(tx, tid)
	n.key.Store(tx, key)
	n.left.Store(tx, uint64(left))
	n.right.Store(tx, uint64(right))
	n.dead.Store(tx, 0)
	return h
}

// step is a tree's one descent (Internal.step, External.step): one window
// of op from start, taking at most budget steps, as reclaim.Window returns
// it, with op's result when the window ends the operation and the steps it
// took.
type step func(tx *stm.Tx, tid int, op sets.Op, start arena.Handle, budget int) (res bool, at arena.Handle, steps int, more bool)

// absent reports a key above MaxKey, which no tree holds (the sentinels'
// keys are there): Insert panics on it, and every other operation answers
// false without a descent.
func absent(op sets.Op) bool {
	if op.Key <= MaxKey {
		return false
	}
	if op.Kind == sets.OpInsert {
		panic("tree: key out of range")
	}
	return true
}

// run is op under the chassis's Op: the tree's step, one window at a time,
// from root.
func (b *base) run(tid int, root arena.Handle, op sets.Op, step step) (res bool) {
	if absent(op) {
		return false
	}
	b.Op(tid, root, 0, func(tx *stm.Tx, start arena.Handle, _ uint64, budget int) (at arena.Handle, _ uint64, more bool) {
		res, at, _, more = step(tx, tid, op, start, budget)
		return at, 0, more
	})
	return res
}

// apply is both trees' sets.Set.Apply: the chassis's Apply with no chain
// function, so each op is the same step run uncut from root, in arrival
// order. No hold is involved, and the single-op removal logic (the internal
// tree's successor-path revokes included) is the same code, which keeps
// precise reclamation intact for batches.
func (b *base) apply(tid int, root arena.Handle, ops []sets.Op, step step) []sets.Result {
	return b.Chassis.Apply(tid, ops, root, 0, nil, func(tx *stm.Tx, tid int, op sets.Op, start arena.Handle, _ uint64) (bool, arena.Handle, uint64, bool) {
		if absent(op) {
			return false, arena.Nil, 0, false
		}
		res, _, _, more := step(tx, tid, op, start, reclaim.Uncut)
		return res, arena.Nil, 0, more
	})
}

// pass is both trees' sets.Passer.Pass: the chassis's Pass with no chain
// function, so each op is the same step from root, in arrival order, the
// ops sharing windows. A removal's revokes, the internal tree's path
// included, happen in the window that does it, as in Apply.
func (b *base) pass(tid int, root arena.Handle, ops []sets.Op, step step) []sets.Result {
	return b.Chassis.Pass(tid, ops, root, 0, nil, func(tx *stm.Tx, tid int, op sets.Op, start arena.Handle, _ uint64, budget int) (bool, arena.Handle, uint64, int, bool) {
		if absent(op) {
			return false, arena.Nil, 0, 0, true
		}
		res, at, steps, more := step(tx, tid, op, start, budget)
		return res, at, 0, steps, !more
	})
}
