package tree

import (
	"hohtx/internal/arena"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// External is the unbalanced external binary search tree: keys live in
// leaves, internal nodes are binary routers (left subtree < key ≤ right
// subtree). Initialization follows the standard sentinel arrangement (as
// in Natarajan–Mittal): a root router and an inner sentinel router with
// sentinel leaves, so every real leaf has a real router parent and a
// grandparent, and updates never touch the sentinels.
//
// Insert replaces a leaf with a (router, old leaf, new leaf) triple;
// Remove deletes a leaf and its parent router, promoting the sibling.
// Because removal is the only operation that takes nodes out of the tree
// and it removes exactly {leaf, parent router}, those two are the only
// nodes a remover must revoke — the paper's Figure 7 notes the absence of
// multi-revokes is why even the strict schemes fare better here than in
// the internal tree.
type External struct {
	*base
	root arena.Handle
}

// NewExternal constructs an external-tree set.
func NewExternal(cfg Config) *External {
	b := newBase(cfg, 2) // a key is a leaf and the router above it
	t := &External{base: b}
	l0 := b.initNode(sent0, arena.Nil, arena.Nil)
	l1 := b.initNode(sent1, arena.Nil, arena.Nil)
	l2 := b.initNode(sent2, arena.Nil, arena.Nil)
	s := b.initNode(sent1, l0, l1)
	t.root = b.initNode(sent2, s, l2)
	return t
}

// leaf is where an external-tree descent ends: the leaf h covering the key,
// the lDir-child of its parent router pH, itself the pDir-child of gH.
type leaf struct {
	gH, pH, h  arena.Handle
	pDir, lDir int
}

// depth is how many ancestors of the leaf an operation needs: none to look,
// the parent to insert under, the grandparent to remove the parent too.
var depth = [...]int{sets.OpLookup: 0, sets.OpInsert: 1, sets.OpRemove: 2}

// descend is the external tree's one descent, shared by the set's step and
// the Map: one window from start toward key, taking at most budget steps.
// It ends at key's leaf with more false, or stops early as a reclaim.Window
// does: at a cut, holding at; or with a Nil at to restart from the root,
// when a resumed window reaches the leaf with fewer than needs ancestors,
// or meets a poisoned link. steps is how many routers it passed.
func (t *External) descend(tx *stm.Tx, tid int, key uint64, needs int, start arena.Handle, budget int) (lf leaf, at arena.Handle, steps int, more bool) {
	lf.h = start
	for ; ; steps++ {
		n := t.Ar.At(lf.h)
		if t.Guard.Link(tx, tid, lf.h, n.left.Load(tx)).IsNil() {
			if needs > 0 && lf.pH.IsNil() || needs > 1 && lf.gH.IsNil() {
				return leaf{}, arena.Nil, steps, true
			}
			return lf, arena.Nil, steps, false
		}
		if steps >= budget {
			return leaf{}, lf.h, steps, true
		}
		lf.gH, lf.pDir = lf.pH, lf.lDir
		lf.pH = lf.h
		if key < t.Guard.Word(tx, tid, lf.h, n.key.Load(tx)) {
			lf.h, lf.lDir = t.Guard.Link(tx, tid, lf.h, n.left.Load(tx)), 0
		} else {
			lf.h, lf.lDir = t.Guard.Link(tx, tid, lf.h, n.right.Load(tx)), 1
		}
		if lf.h.IsNil() {
			// A router's children are never Nil; only a poisoned link
			// defuses to Nil. This attempt is doomed.
			return leaf{}, arena.Nil, steps, true
		}
	}
}

// step is the external tree's set operation: the shared descent, then op at
// the leaf (see the step type).
func (t *External) step(tx *stm.Tx, tid int, op sets.Op, start arena.Handle, budget int) (bool, arena.Handle, int, bool) {
	lf, at, steps, more := t.descend(tx, tid, op.Key, depth[op.Kind], start, budget)
	if more {
		return false, at, steps, true
	}
	leafKey := t.Guard.Word(tx, tid, lf.h, t.Ar.At(lf.h).key.Load(tx))
	found := leafKey == op.Key
	switch {
	case op.Kind == sets.OpLookup:
		return found, arena.Nil, steps, false
	case op.Kind == sets.OpInsert && !found:
		t.graft(tx, tid, lf, op.Key, leafKey)
	case op.Kind == sets.OpRemove && found:
		t.prune(tx, tid, lf)
	default:
		return false, arena.Nil, steps, false
	}
	return true, arena.Nil, steps, false
}

// graft replaces lf's leaf, whose key is leafKey, with a router over it and
// a new leaf for key, returning the new leaf's node.
func (t *External) graft(tx *stm.Tx, tid int, lf leaf, key, leafKey uint64) *node {
	newLeaf := t.allocNode(tx, tid, key, arena.Nil, arena.Nil)
	var router arena.Handle
	if key < leafKey {
		router = t.allocNode(tx, tid, leafKey, newLeaf, lf.h)
	} else {
		router = t.allocNode(tx, tid, key, lf.h, newLeaf)
	}
	child(t.Ar.At(lf.pH), lf.lDir).Store(tx, uint64(router))
	return t.Ar.At(newLeaf)
}

// prune unlinks lf's leaf and its parent router, promoting the sibling
// subtree to the grandparent.
func (t *External) prune(tx *stm.Tx, tid int, lf leaf) {
	sibling := uint64(t.Guard.Link(tx, tid, lf.pH, child(t.Ar.At(lf.pH), 1-lf.lDir).Load(tx)))
	child(t.Ar.At(lf.gH), lf.pDir).Store(tx, sibling)
	t.Unlinked(tx, tid, lf.pH)
	t.Unlinked(tx, tid, lf.h)
}

// Lookup implements sets.Set.
func (t *External) Lookup(tid int, key uint64) bool {
	return t.run(tid, t.root, sets.Op{Kind: sets.OpLookup, Key: key}, t.step)
}

// Insert implements sets.Set.
func (t *External) Insert(tid int, key uint64) bool {
	return t.run(tid, t.root, sets.Op{Kind: sets.OpInsert, Key: key}, t.step)
}

// Remove implements sets.Set: it unlinks the leaf and its parent router,
// promoting the sibling subtree to the grandparent.
func (t *External) Remove(tid int, key uint64) bool {
	return t.run(tid, t.root, sets.Op{Kind: sets.OpRemove, Key: key}, t.step)
}

// Apply implements sets.Set. An uncut descent reaches every real leaf
// through a parent router and a grandparent, so it never restarts for
// depth.
func (t *External) Apply(tid int, ops []sets.Op) []sets.Result {
	return t.apply(tid, t.root, ops, t.step)
}

// Pass implements sets.Passer. A descent from the root, like Apply's, never
// restarts for depth; one resumed from a cut may.
func (t *External) Pass(tid int, ops []sets.Op) []sets.Result {
	return t.pass(tid, t.root, ops, t.step)
}

// Snapshot implements sets.Set (quiescence required); sentinel leaves are
// excluded.
func (t *External) Snapshot() []uint64 {
	var out []uint64
	t.leaves(func(n *node) { out = append(out, n.key.Raw()) })
	return out
}

// leaves calls fn on every leaf but the sentinels, in key order
// (quiescence required).
func (t *External) leaves(fn func(n *node)) {
	var walk func(h arena.Handle)
	walk = func(h arena.Handle) {
		if h.IsNil() {
			return
		}
		n := t.Ar.At(h)
		l := arena.Handle(n.left.Raw())
		if l.IsNil() {
			if n.key.Raw() <= MaxKey {
				fn(n)
			}
			return
		}
		walk(l)
		walk(arena.Handle(n.right.Raw()))
	}
	walk(t.root)
}

// ValidateRouting checks that every leaf is reachable under the routing
// invariant and every router has two children (test helper). Intervals are
// inclusive: a leaf under a router with key k satisfies key < k on the
// left and key >= k on the right.
func (t *External) ValidateRouting() bool {
	ok := true
	var walk func(h arena.Handle, lo, hi uint64)
	walk = func(h arena.Handle, lo, hi uint64) {
		if !ok || h.IsNil() {
			return
		}
		n := t.Ar.At(h)
		k := n.key.Raw()
		l := arena.Handle(n.left.Raw())
		r := arena.Handle(n.right.Raw())
		if l.IsNil() {
			if !r.IsNil() || k < lo || k > hi {
				ok = false
			}
			return
		}
		if r.IsNil() || k < lo || k > hi {
			ok = false // router with one child or out-of-interval key
			return
		}
		walk(l, lo, k-1)
		walk(r, k, hi)
	}
	walk(t.root, 0, ^uint64(0))
	return ok
}
