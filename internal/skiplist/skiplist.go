// Package skiplist implements a concurrent skiplist set with hand-over-hand
// transactions and revocable reservations — one of the "other concurrent
// data structures, such as balanced trees and hash tables, for which
// existing scalable algorithms rely on deferred memory reclamation" that the
// paper's conclusion (§6) proposes as the technique's next applications.
// Probabilistic balancing makes the skiplist the natural stand-in for a
// balanced tree here: it gives O(log n) expected traversals with none of the
// rotation problem (a rotation moves subtrees across regions, which would
// force wide revocation; a skiplist removal disturbs exactly one node).
//
// Design. A node has a height h drawn geometrically and participates in h
// sorted chains. A traversal descends as usual: run right along level l
// while next.key < target, then drop a level. Hand-over-hand windows cut
// the traversal after W node inspections; the thread reserves the node it
// will resume from and remembers the level in thread-local state (the
// level needs no protection: if the reservation is still valid the node is
// still in every one of its chains with its key intact, so resuming the
// descent from (node, level) is exactly a sequential search step). That
// descent is one step per operation (ops.go): the chassis's Op runs it
// window by window, holding or dropping the position between windows, and
// the chassis's Apply runs the same step uncut from the head, once per op
// in arrival order.
//
// Removal unlinks the victim from all of its levels inside the final
// transaction, revokes it once, and frees it at the commit point — precise
// reclamation, one Revoke per removal regardless of height. The correctness
// argument is the singly linked list's (§4.1), applied per level: unlinking
// never changes any surviving node's key or forward reachability, so the
// only resumption point a removal can invalidate is the removed node
// itself, which is exactly what Revoke clears.
package skiplist

import (
	"hohtx/internal/arena"
	"hohtx/internal/pad"
	"hohtx/internal/reclaim"
	"hohtx/internal/stm"
)

// MaxHeight bounds node heights; 2^20 expected keys per level-20 node is
// far beyond the benchmark sizes.
const MaxHeight = 20

// nodeLevels is how many levels a node holds in its own slot: with p = ½,
// 15 nodes in 16 are no taller. A taller node, and the head, keeps the
// levels above in a tower from the skiplist's second arena.
const nodeLevels = 4

// node is a skiplist element, hot cells first. next holds its links below
// nodeLevels; tower names the tower holding the rest (Nil when there are
// none); height and tower are immutable after the insert that published
// the node commits; dead is the deferred modes' logical-deletion mark.
type node struct {
	key    stm.Word
	next   [nodeLevels]stm.Word
	tower  stm.Word
	height stm.Word
	dead   stm.Word
}

// words is the node's one enumeration of its cells (reclaim.Layout.Words).
func (n *node) words(f func(*stm.Word, uint64), x uint64) {
	f(&n.key, x)
	for l := range n.next {
		f(&n.next[l], x)
	}
	f(&n.tower, x)
	f(&n.height, x)
	f(&n.dead, x)
}

// tower holds a tall node's links from level nodeLevels up. It is
// allocated by the node's insert (newTower) and freed with the node
// (freed).
type tower struct {
	next [MaxHeight - nodeLevels]stm.Word
}

// words is the tower's one enumeration of its cells.
func (t *tower) words(f func(*stm.Word, uint64), x uint64) {
	for l := range t.next {
		f(&t.next[l], x)
	}
}

// noTower stands in where a tower cell held the poison sentinel, which the
// guard defuses to Nil: its links are all Nil, so the descent ends the
// level and the sanitizer, not an arena.At(Nil) panic, judges the attempt.
var noTower tower

// link is n's level-l link cell: in the node below nodeLevels, in its tower
// tw from there up.
func link(n *node, tw *tower, l int) *stm.Word {
	if l < nodeLevels {
		return &n.next[l]
	}
	return &tw.next[l-nodeLevels]
}

// onward is the cell a visit of n at level l reads past n's key: its own
// level-l link below nodeLevels, its tower cell from there up.
func onward(n *node, l int) *stm.Word {
	if l < nodeLevels {
		return &n.next[l]
	}
	return &n.tower
}

type threadState struct {
	rng uint64
	_   pad.Line
}

// Config parameterizes the skiplist; see reclaim.Config. A zero Profile means
// the tree setting (serial fallback after 8 attempts) and a zero Window,
// W = 16.
type Config = reclaim.Config

// SkipList is the concurrent set: the chassis (a hold's word is the resume
// level), a full-height head sentinel with key 0, and the traversals in
// ops.go and iter.go.
type SkipList struct {
	reclaim.Chassis[node]
	head    arena.Handle
	towers  *arena.Arena[tower]
	threads []threadState
	// freeTower frees tower b on tid a: an aborted insert's hook.
	freeTower func(a, b, c uint64)
}

// New constructs a skiplist set.
func New(cfg Config) *SkipList {
	cfg = cfg.WithDefaults(8, 16)
	s := &SkipList{threads: make([]threadState, cfg.Threads)}
	s.Init(cfg, reclaim.Layout[node]{
		Words: (*node).words,
		Dead:  func(h arena.Handle) *stm.Word { return &s.Ar.At(h).dead },
		Freed: s.freed,
	})
	s.towers = reclaim.NewArena(cfg, s.RT, (*tower).words, nil)
	s.freeTower = func(a, b, _ uint64) { s.towers.Free(int(a), arena.Handle(b)) }
	for i := range s.threads {
		s.threads[i].rng = uint64(i)*0x9e3779b97f4a7c15 + 0xdeadbeef
	}
	var h *node
	s.head, h = s.NewSentinel()
	h.height.Init(MaxHeight)
	th := s.towers.Alloc(0)
	s.towers.At(th).words((*stm.Word).Init, 0)
	h.tower.Init(uint64(th))
	return s
}

// freed is the node arena's free hook (reclaim.Layout.Freed): with n's
// cells fenced, it clears n's tower cell and frees the tower it named. Nil
// and the poison sentinel both mean none: the slot's last free left one of
// them, and an insert that reused the slot and aborted never wrote its
// tower's handle back (its own abort hook frees that tower).
func (s *SkipList) freed(tid int, n *node) {
	th := n.tower.Raw()
	if arena.Handle(th).IsNil() || th == arena.PoisonWord {
		return
	}
	n.tower.Poison(uint64(arena.Nil)) // a plain store to a fenced cell, as the poisoner's
	s.towers.Free(tid, arena.Handle(th))
}

// newTower allocates a tower in tid's insert transaction as Born does a
// node (reclaim's freer.born): the abort hook that gives it back, then one
// transactional read, which puts the slot's last free before the snapshot.
func (s *SkipList) newTower(tx *stm.Tx, tid int) (arena.Handle, *tower) {
	th := s.towers.Alloc(tid)
	tx.OnAbortCall(s.freeTower, uint64(tid), uint64(th), 0)
	tw := s.towers.At(th)
	tw.next[0].Load(tx) // may abort: after the hook that gives the tower back
	return th, tw
}

// towerOf is the tower of n, the node named by h.
func (s *SkipList) towerOf(tx *stm.Tx, tid int, h arena.Handle, n *node) *tower {
	return s.tower(tx, tid, h, n.tower.Load(tx))
}

// tower is the tower v names, v loaded from the tower cell of the node h.
func (s *SkipList) tower(tx *stm.Tx, tid int, h arena.Handle, v uint64) *tower {
	if th := s.Guard.Link(tx, tid, h, v); !th.IsNil() {
		return s.towers.At(th)
	}
	return &noTower
}

// linkOf is the level-l link cell of the node named by h.
func (s *SkipList) linkOf(tx *stm.Tx, tid int, h arena.Handle, l int) *stm.Word {
	n := s.Ar.At(h)
	if l < nodeLevels {
		return &n.next[l]
	}
	return &s.towerOf(tx, tid, h, n).next[l-nodeLevels]
}

// Name implements sets.Set.
func (s *SkipList) Name() string { return s.Chassis.Name() + "/skip" }

// randHeight draws a geometric height in [1, MaxHeight] (p = 1/2).
func (s *SkipList) randHeight(tid int) int {
	ts := &s.threads[tid]
	x := ts.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	ts.rng = x
	h := 1
	for x&1 == 1 && h < MaxHeight {
		h++
		x >>= 1
	}
	return h
}

// Snapshot implements sets.Set via the bottom level (quiescence required).
func (s *SkipList) Snapshot() []uint64 {
	var out []uint64
	for h := s.rawNext(s.head, 0); !h.IsNil(); h = s.rawNext(h, 0) {
		out = append(out, s.Ar.At(h).key.Raw())
	}
	return out
}

// rawNext is the level-l successor of the node named by h, read without a
// transaction (quiescence required).
func (s *SkipList) rawNext(h arena.Handle, l int) arena.Handle {
	n := s.Ar.At(h)
	if l < nodeLevels {
		return arena.Handle(n.next[l].Raw())
	}
	return arena.Handle(s.towers.At(arena.Handle(n.tower.Raw())).next[l-nodeLevels].Raw())
}

// ValidateLevels checks that every level is sorted and a sub-sequence of
// the level below, that exactly the nodes taller than nodeLevels have a
// tower, and that the tower arena holds the head's, each such resident
// node's and at most one per deferred node (none once a mode has drained;
// quiescence required).
func (s *SkipList) ValidateLevels() bool {
	bottom := map[uint64]bool{}
	tall := uint64(1) // the head's tower
	for h := s.rawNext(s.head, 0); !h.IsNil(); h = s.rawNext(h, 0) {
		n := s.Ar.At(h)
		bottom[n.key.Raw()] = true
		if hasTower := !arena.Handle(n.tower.Raw()).IsNil(); hasTower != (n.height.Raw() > nodeLevels) {
			return false // a tower on a short node, or none on a tall one
		} else if hasTower {
			tall++
		}
	}
	for l := 0; l < MaxHeight; l++ {
		prev := uint64(0)
		for h := s.rawNext(s.head, l); !h.IsNil(); h = s.rawNext(h, l) {
			n := s.Ar.At(h)
			k := n.key.Raw()
			if l > 0 && !bottom[k] {
				return false // node on level l missing from level 0
			}
			if k <= prev {
				return false // not strictly sorted
			}
			if int(n.height.Raw()) <= l {
				return false // linked above its own height
			}
			prev = k
		}
	}
	live := s.towers.Stats().Live
	return live >= tall && live <= tall+s.DeferredNodes()
}
