package lockfree

import (
	"sync/atomic"

	"hohtx/internal/arena"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
)

// Natarajan–Mittal lock-free external BST (PPoPP 2014). Deletion is
// edge-based: the deleting thread *injects* a flag on the edge from the
// parent router to the target leaf, then *cleans up* by tagging the
// sibling edge (freezing it) and swinging the ancestor's edge over the
// whole doomed subtree. Other operations that stumble on flagged or
// tagged edges help complete the cleanup. Removed nodes are never freed —
// the paper's LFLeak tree — but retirements are counted so the unbounded
// memory growth is measurable.

// Edge-word bits (the arena's reserved user bits).
const (
	flagBit = uint64(1) << 62 // edge target is being deleted
	tagBit  = uint64(1) << 63 // edge is frozen (sibling of a deletion)
)

func flagged(raw uint64) bool { return raw&flagBit != 0 }
func tagged(raw uint64) bool  { return raw&tagBit != 0 }
func addrOf(raw uint64) arena.Handle {
	return arena.Handle(raw &^ (flagBit | tagBit))
}

// NM sentinels; user keys must stay below nmSent0.
const (
	nmSent0 = ^uint64(0) - 2
	nmSent1 = ^uint64(0) - 1
	nmSent2 = ^uint64(0)
)

// NMMaxKey is the largest user key the tree accepts.
const NMMaxKey = nmSent0 - 1

// nmNode is a tree node; a node is a leaf iff its left edge is zero. The
// key is immutable after publication, and nodes are never recycled (the
// structure leaks by design), so plain reads of key are safe. It has no
// cache-line pad, as the TM nodes it is measured against have none: a slot
// is its words, 32 B (TestNodeLayout).
type nmNode struct {
	key   uint64
	left  atomic.Uint64
	right atomic.Uint64
}

// NMTree is the lock-free external BST set.
type NMTree struct {
	ar   *arena.Arena[nmNode]
	leak reclaim.Scheme
	root arena.Handle // R sentinel router
	ops  []opCounter
}

// NewNMTree constructs the tree with the standard sentinel arrangement. It
// reads cfg's Threads and ArenaPolicy; nothing else in it is transactional.
func NewNMTree(cfg reclaim.Config) *NMTree {
	if cfg.Threads <= 0 {
		cfg.Threads = 8
	}
	t := &NMTree{
		ar:   arena.New[nmNode](arena.Config{Threads: cfg.Threads, Policy: cfg.ArenaPolicy}),
		leak: reclaim.NewLeak(reclaim.Nodes{Config: cfg}),
		ops:  make([]opCounter, cfg.Threads),
	}
	mk := func(key uint64, left, right arena.Handle) arena.Handle {
		h := t.ar.Alloc(0)
		n := t.ar.At(h)
		n.key = key
		n.left.Store(uint64(left))
		n.right.Store(uint64(right))
		return h
	}
	l0 := mk(nmSent0, arena.Nil, arena.Nil)
	l1 := mk(nmSent1, arena.Nil, arena.Nil)
	l2 := mk(nmSent2, arena.Nil, arena.Nil)
	s := mk(nmSent1, l0, l1)
	t.root = mk(nmSent2, s, l2)
	return t
}

// Name implements sets.Set.
func (t *NMTree) Name() string { return "LFLeak" }

// Register implements sets.Set.
func (t *NMTree) Register(tid int) {}

// Finish implements sets.Set.
func (t *NMTree) Finish(tid int) {}

// Apply implements sets.Set. The lock-free baseline has no transactions to
// merge into, so ops execute one at a time: results are individually
// linearizable but the batch is NOT atomic.
func (t *NMTree) Apply(tid int, ops []sets.Op) []sets.Result {
	return sets.ApplyEach(t, tid, ops)
}

// seekRecord captures a root-to-leaf traversal: leaf and its parent, plus
// the deepest ancestor whose edge toward the leaf's region was untagged
// (the edge a cleanup will swing).
type seekRecord struct {
	ancestor, successor, parent, leaf arena.Handle
}

// childField returns the parent's edge cell on key's side.
func (t *NMTree) childField(parentH arena.Handle, key uint64) *atomic.Uint64 {
	n := t.ar.At(parentH)
	if key < n.key {
		return &n.left
	}
	return &n.right
}

// seek descends from the root to the leaf in key's position (NM Alg. 2).
func (t *NMTree) seek(key uint64, s *seekRecord) {
	rootS := addrOf(t.ar.At(t.root).left.Load())
	s.ancestor = t.root
	s.successor = rootS
	s.parent = rootS
	parentField := t.ar.At(rootS).left.Load()
	s.leaf = addrOf(parentField)
	currentField := t.childField(s.leaf, key).Load()
	current := addrOf(currentField)
	for !current.IsNil() {
		if !tagged(parentField) {
			s.ancestor = s.parent
			s.successor = s.leaf
		}
		s.parent = s.leaf
		s.leaf = current
		parentField = currentField
		currentField = t.childField(current, key).Load()
		current = addrOf(currentField)
	}
}

// Lookup implements sets.Set.
func (t *NMTree) Lookup(tid int, key uint64) bool {
	t.ops[tid].n++
	var s seekRecord
	t.seek(key, &s)
	return t.ar.At(s.leaf).key == key
}

// Insert implements sets.Set (NM Alg. 1).
func (t *NMTree) Insert(tid int, key uint64) bool {
	if key > NMMaxKey {
		panic("lockfree: key out of range")
	}
	t.ops[tid].n++
	var s seekRecord
	var newLeaf, newRouter arena.Handle
	for {
		t.seek(key, &s)
		leafKey := t.ar.At(s.leaf).key
		if leafKey == key {
			if !newLeaf.IsNil() {
				t.ar.Free(tid, newLeaf) // never published
				t.ar.Free(tid, newRouter)
			}
			return false
		}
		if newLeaf.IsNil() {
			newLeaf = t.ar.Alloc(tid)
			nl := t.ar.At(newLeaf)
			nl.key = key
			nl.left.Store(0)
			nl.right.Store(0)
			newRouter = t.ar.Alloc(tid)
		}
		r := t.ar.At(newRouter)
		if key < leafKey {
			r.key = leafKey
			r.left.Store(uint64(newLeaf))
			r.right.Store(uint64(s.leaf))
		} else {
			r.key = key
			r.left.Store(uint64(s.leaf))
			r.right.Store(uint64(newLeaf))
		}
		childAddr := t.childField(s.parent, key)
		if childAddr.CompareAndSwap(uint64(s.leaf), uint64(newRouter)) {
			return true
		}
		// Failed: if the edge still targets our leaf but is flagged or
		// tagged, help the pending deletion before retrying.
		raw := childAddr.Load()
		if addrOf(raw) == s.leaf && (flagged(raw) || tagged(raw)) {
			t.cleanup(tid, key, &s)
		}
	}
}

// Remove implements sets.Set (NM Alg. 3): injection then cleanup.
func (t *NMTree) Remove(tid int, key uint64) bool {
	t.ops[tid].n++
	var s seekRecord
	injecting := true
	var leaf arena.Handle
	for {
		t.seek(key, &s)
		childAddr := t.childField(s.parent, key)
		if injecting {
			leaf = s.leaf
			if t.ar.At(leaf).key != key {
				return false
			}
			if childAddr.CompareAndSwap(uint64(leaf), uint64(leaf)|flagBit) {
				injecting = false
				if t.cleanup(tid, key, &s) {
					return true
				}
			} else {
				raw := childAddr.Load()
				if addrOf(raw) == leaf && (flagged(raw) || tagged(raw)) {
					t.cleanup(tid, key, &s) // help whoever owns the edge
				}
			}
		} else {
			if s.leaf != leaf {
				return true // someone completed our cleanup for us
			}
			if t.cleanup(tid, key, &s) {
				return true
			}
		}
	}
}

// cleanup completes a pending deletion in key's position (NM Alg. 4):
// freeze the sibling edge with a tag, then swing the ancestor's edge from
// the successor to the sibling (preserving the sibling's flag, in case the
// sibling leaf is itself under deletion). Returns whether the final swing
// succeeded.
func (t *NMTree) cleanup(tid int, key uint64, s *seekRecord) bool {
	anc := t.ar.At(s.ancestor)
	var successorAddr *atomic.Uint64
	if key < anc.key {
		successorAddr = &anc.left
	} else {
		successorAddr = &anc.right
	}
	par := t.ar.At(s.parent)
	var childAddr, otherAddr *atomic.Uint64
	if key < par.key {
		childAddr, otherAddr = &par.left, &par.right
	} else {
		childAddr, otherAddr = &par.right, &par.left
	}
	doomedAddr, siblingAddr := childAddr, otherAddr
	if !flagged(childAddr.Load()) {
		// The flag is on the other edge: the leaf under deletion is the
		// sibling of key's position, so that is the edge to remove and
		// key's own edge is the survivor.
		doomedAddr, siblingAddr = otherAddr, childAddr
	}
	// Freeze the sibling edge (emulated bit-test-and-set).
	for {
		v := siblingAddr.Load()
		if tagged(v) {
			break
		}
		if siblingAddr.CompareAndSwap(v, v|tagBit) {
			break
		}
	}
	v := siblingAddr.Load()
	// Swing the ancestor's edge over the doomed parent+leaf, keeping the
	// sibling's flag bit (its own deletion, if any, must stay visible).
	if successorAddr.CompareAndSwap(uint64(s.successor), v&^tagBit) {
		// Exactly one thread performs this transition; it accounts for
		// the leaked router and leaf.
		stamp := t.ops[tid].n
		t.leak.Retire(tid, s.parent, stamp)
		doomed := doomedAddr.Load()
		if flagged(doomed) {
			t.leak.Retire(tid, addrOf(doomed), stamp)
		}
		return true
	}
	return false
}

// Snapshot implements sets.Set (quiescence required).
func (t *NMTree) Snapshot() []uint64 {
	var out []uint64
	var walk func(h arena.Handle)
	walk = func(h arena.Handle) {
		if h.IsNil() {
			return
		}
		n := t.ar.At(h)
		l := addrOf(n.left.Load())
		if l.IsNil() {
			if n.key <= NMMaxKey {
				out = append(out, n.key)
			}
			return
		}
		walk(l)
		walk(addrOf(n.right.Load()))
	}
	walk(t.root)
	return out
}

// ValidateRouting checks the routing invariant (test helper; quiescence
// required).
func (t *NMTree) ValidateRouting() bool {
	ok := true
	var walk func(h arena.Handle, lo, hi uint64)
	walk = func(h arena.Handle, lo, hi uint64) {
		if !ok || h.IsNil() {
			return
		}
		n := t.ar.At(h)
		l := addrOf(n.left.Load())
		r := addrOf(n.right.Load())
		if l.IsNil() {
			if !r.IsNil() || n.key < lo || n.key > hi {
				ok = false
			}
			return
		}
		if r.IsNil() || n.key < lo || n.key > hi || n.key == 0 {
			ok = false
			return
		}
		walk(l, lo, n.key-1)
		walk(r, n.key, hi)
	}
	walk(t.root, 0, ^uint64(0))
	return ok
}

// LiveNodes implements sets.MemoryReporter. For the leaky tree this only
// ever grows.
func (t *NMTree) LiveNodes() uint64 { return t.ar.Stats().Live }

// DeferredNodes implements sets.MemoryReporter: the leaked node count.
func (t *NMTree) DeferredNodes() uint64 { return t.leak.Stats().Deferred }

// ReclaimStats exposes the leak scheme's counters.
func (t *NMTree) ReclaimStats() reclaim.Stats { return t.leak.Stats() }

// Books implements sets.BooksReporter: the five sentinel nodes NewNMTree
// builds, and a leaf and its router per key.
func (t *NMTree) Books(keys uint64) reclaim.Books {
	st := t.leak.Stats()
	return reclaim.Books{
		Live: t.ar.Stats().Live, Sentinels: 5, PerKey: 2, Keys: keys,
		Deferred: st.Deferred, Leftover: st.Leftover, Traits: t.leak.Traits(),
	}
}
