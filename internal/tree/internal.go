package tree

import (
	"hohtx/internal/arena"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Internal is the unbalanced internal binary search tree (§4.3): every
// node carries a value; a sentinel with key +∞ serves as the root so the
// first real node is always a left child and removal of the topmost real
// node needs no special case.
type Internal struct {
	*base
	root arena.Handle // sentinel; the tree hangs off its left child
}

// NewInternal constructs an internal-tree set.
func NewInternal(cfg Config) *Internal {
	b := newBase(cfg, 1)
	// Its two-children removal revokes nodes that stay linked, which only
	// the precise links can do.
	b.requirePrecise("the internal tree")
	return &Internal{base: b, root: b.initNode(sent2, arena.Nil, arena.Nil)}
}

// child returns the dir-selected child cell of n (0 left, 1 right).
func child(n *node, dir int) *stm.Word {
	if dir == 0 {
		return &n.left
	}
	return &n.right
}

// step is the internal tree's one descent: one window of op from start,
// taking at most budget steps (see the step type). A Remove that matches
// at a resumed window's first node — whose parent is unknown: the paper's
// nodes store child-direction, not parent pointers — restarts from the
// root.
func (t *Internal) step(tx *stm.Tx, tid int, op sets.Op, start arena.Handle, budget int) (bool, arena.Handle, int, bool) {
	prevH, currH := arena.Nil, start
	dir := 0
	for steps := 0; ; steps++ {
		if currH.IsNil() {
			if op.Kind != sets.OpInsert {
				return false, arena.Nil, steps, false
			}
			nh := t.allocNode(tx, tid, op.Key, arena.Nil, arena.Nil)
			child(t.Ar.At(prevH), dir).Store(tx, uint64(nh))
			return true, arena.Nil, steps, false
		}
		n := t.Ar.At(currH)
		ck := t.Guard.Word(tx, tid, currH, n.key.Load(tx))
		if ck == op.Key {
			switch {
			case op.Kind != sets.OpRemove:
				return op.Kind == sets.OpLookup, arena.Nil, steps, false
			case prevH.IsNil():
				return false, arena.Nil, steps, true // matched at the resumed start: ancestors unknown
			}
			t.removeFound(tx, tid, prevH, currH, dir)
			return true, arena.Nil, steps, false
		}
		if steps >= budget {
			return false, currH, steps, true // hand over to the next window at currH
		}
		prevH = currH
		if op.Key < ck {
			currH = t.Guard.Link(tx, tid, currH, n.left.Load(tx))
			dir = 0
		} else {
			currH = t.Guard.Link(tx, tid, currH, n.right.Load(tx))
			dir = 1
		}
	}
}

// Lookup implements sets.Set.
func (t *Internal) Lookup(tid int, key uint64) bool {
	return t.run(tid, t.root, sets.Op{Kind: sets.OpLookup, Key: key}, t.step)
}

// Insert implements sets.Set.
func (t *Internal) Insert(tid int, key uint64) bool {
	return t.run(tid, t.root, sets.Op{Kind: sets.OpInsert, Key: key}, t.step)
}

// Remove implements sets.Set. The two-children case swaps in the leftmost
// descendant of the right child and revokes the whole victim-to-successor
// path (see the package comment).
func (t *Internal) Remove(tid int, key uint64) bool {
	return t.run(tid, t.root, sets.Op{Kind: sets.OpRemove, Key: key}, t.step)
}

// Apply implements sets.Set. The root sentinel's key is +∞, so an uncut
// descent's match always has a known parent.
func (t *Internal) Apply(tid int, ops []sets.Op) []sets.Result {
	return t.apply(tid, t.root, ops, t.step)
}

// Pass implements sets.Passer.
func (t *Internal) Pass(tid int, ops []sets.Op) []sets.Result {
	return t.pass(tid, t.root, ops, t.step)
}

// removeFound deletes the matched node vH (the dir-child of parentH),
// dispatching on its child count.
func (t *Internal) removeFound(tx *stm.Tx, tid int, parentH, vH arena.Handle, dir int) {
	v := t.Ar.At(vH)
	lH := t.Guard.Link(tx, tid, vH, v.left.Load(tx))
	rH := t.Guard.Link(tx, tid, vH, v.right.Load(tx))
	switch {
	case lH.IsNil() && rH.IsNil():
		child(t.Ar.At(parentH), dir).Store(tx, 0)
		t.Unlinked(tx, tid, vH)
	case lH.IsNil():
		child(t.Ar.At(parentH), dir).Store(tx, uint64(rH))
		t.Unlinked(tx, tid, vH)
	case rH.IsNil():
		child(t.Ar.At(parentH), dir).Store(tx, uint64(lH))
		t.Unlinked(tx, tid, vH)
	default:
		t.removeTwoChildren(tx, tid, vH, rH)
	}
}

// removeTwoChildren overwrites vH's key with its successor's and extracts
// the successor node. Every node on the path from the victim through the
// successor — whose subtree regions are the only ones the upward key move
// invalidates — is revoked so resumed traversals in that region restart.
func (t *Internal) removeTwoChildren(tx *stm.Tx, tid int, vH, rH arena.Handle) {
	// The victim's key changes: holds on it become unsafe.
	t.Link.Revoke(tx, vH)
	// Walk to the leftmost descendant of the right child, revoking the
	// path as we go (this is the multi-Revoke cost Figure 6 studies). The
	// walk's last node is the successor, which Unlinked revokes below.
	parentOfL := vH
	lH := rH
	for {
		next := t.Guard.Link(tx, tid, lH, t.Ar.At(lH).left.Load(tx))
		if next.IsNil() {
			break
		}
		t.Link.Revoke(tx, lH)
		parentOfL = lH
		lH = next
	}
	l := t.Ar.At(lH)
	// Move the successor's key up, then splice the successor out by
	// promoting its right child.
	t.Ar.At(vH).key.Store(tx, t.Guard.Word(tx, tid, lH, l.key.Load(tx)))
	promoted := uint64(t.Guard.Link(tx, tid, lH, l.right.Load(tx)))
	if parentOfL == vH {
		t.Ar.At(vH).right.Store(tx, promoted)
	} else {
		t.Ar.At(parentOfL).left.Store(tx, promoted)
	}
	t.Unlinked(tx, tid, lH)
}

// Snapshot implements sets.Set via an in-order walk (quiescence required).
func (t *Internal) Snapshot() []uint64 {
	var out []uint64
	var walk func(h arena.Handle)
	walk = func(h arena.Handle) {
		if h.IsNil() {
			return
		}
		n := t.Ar.At(h)
		walk(arena.Handle(n.left.Raw()))
		out = append(out, n.key.Raw())
		walk(arena.Handle(n.right.Raw()))
	}
	walk(arena.Handle(t.Ar.At(t.root).left.Raw()))
	return out
}

// ValidateBST checks the BST invariant over the whole tree (test helper;
// quiescence required).
func (t *Internal) ValidateBST() bool {
	ok := true
	var walk func(h arena.Handle, lo, hi uint64)
	walk = func(h arena.Handle, lo, hi uint64) {
		if h.IsNil() || !ok {
			return
		}
		n := t.Ar.At(h)
		k := n.key.Raw()
		if k < lo || k >= hi {
			ok = false
			return
		}
		walk(arena.Handle(n.left.Raw()), lo, k)
		walk(arena.Handle(n.right.Raw()), k+1, hi)
	}
	walk(arena.Handle(t.Ar.At(t.root).left.Raw()), 0, sent2)
	return ok
}
