package skiplist

import (
	"hohtx/internal/arena"
	"hohtx/internal/stm"
)

// Traversal engine. Each operation's closure is one window transaction and
// the chassis's Op (stm.Runtime.Chain) is the loop that runs them.
//
// Searches descend from the head's top level, advancing right while the
// next key is smaller and dropping a level otherwise. Window cuts hold the
// current node through the link, with the current level as the hold's
// word; resuming from a held node at a remembered level is a correct
// search continuation because the node is live (not revoked), its key is
// immutable, and every key greater than it is reachable from it.
//
// Updates need predecessor sets, which must be collected inside the
// transaction that performs the update: an insert of height h stops
// descending at level h so predecessor collection for levels h-1..0 runs
// in the final transaction, and a remove finishes the descent from its
// first match in one transaction. A remove that resumed *below* the
// victim's top level cannot see the predecessors above it; it restarts
// with a single uncut traversal (rare: it requires a window cut to have
// landed under the victim's tower).

// searchCtx carries one window transaction's traversal frame.
type searchCtx struct {
	tx    *stm.Tx
	tid   int
	curr  arena.Handle
	level int
	steps int
}

// advanceResult reports why a descent stopped.
type advanceResult uint8

const (
	// advMatched: the next node at the frame's level holds the key; the
	// frame points at its predecessor at that level.
	advMatched advanceResult = iota
	// advStopped: the frame is at the stop level and cannot advance
	// (next key is greater or nil). With stopLevel 0 this means absent.
	advStopped
	// advCut: the window budget is exhausted at a cuttable level.
	advCut
)

// run descends toward key until a terminal condition. The frame never
// drops below stopLevel, and never cuts below noCutBelow.
//
// A step right is one node visit: the next node's key and, when the walk
// goes on past it at this level, its link there, in one stm call. Only a
// drop of a level reads a link on its own.
func (s *SkipList) run(c *searchCtx, key uint64, budget, noCutBelow, stopLevel int) advanceResult {
	n := s.Ar.At(c.curr) // translated once per node, carried across levels
	nextH := s.Guard.Link(c.tx, c.tid, c.curr, n.next[c.level].Load(c.tx))
	for {
		if !nextH.IsNil() {
			bound := key
			if c.steps >= budget && c.level >= noCutBelow {
				bound = 0 // a cut here: the next node's link is not read
			}
			next := s.Ar.At(nextH)
			nk, link, more := stm.LoadBelow(c.tx, &next.key, &next.next[c.level], bound)
			nk = s.Guard.Word(c.tx, c.tid, nextH, nk)
			if nk == key {
				return advMatched
			}
			if nk < key {
				if !more {
					return advCut
				}
				c.curr, n = nextH, next
				c.steps++
				nextH = s.Guard.Link(c.tx, c.tid, nextH, link)
				continue
			}
		}
		if c.level <= stopLevel {
			return advStopped
		}
		c.level--
		nextH = s.Guard.Link(c.tx, c.tid, c.curr, n.next[c.level].Load(c.tx))
	}
}

// top is the word of a traversal that starts at the head: its top level.
// unbounded is the budget of an operation that demands a single uncut
// traversal.
const (
	top       = MaxHeight - 1
	unbounded = int(^uint(0) >> 1)
)

// Lookup implements sets.Set.
func (s *SkipList) Lookup(tid int, key uint64) bool {
	var res bool
	s.Op(tid, func(tx *stm.Tx) (more bool) {
		start, level, held, budget := s.Start(tx, tid, s.head, top)
		c := &searchCtx{tx: tx, tid: tid, curr: start, level: int(level)}
		r := s.run(c, key, budget, 0, 0)
		if r == advCut {
			s.Link.Hold(tx, tid, held, c.curr, uint64(c.level))
			return true
		}
		res = r == advMatched
		s.Link.Drop(tx, tid, held)
		return false
	})
	return res
}

// collectPreds advances the frame along each level from c.level down to 0,
// recording the final predecessor per level in preds. It returns false
// (duplicate found) if a node with the key is encountered; stopAt, when
// non-Nil, treats that node as the search boundary instead (the remove
// path, where the "duplicate" is the victim itself).
func (s *SkipList) collectPreds(c *searchCtx, key uint64, stopAt arena.Handle, preds *[MaxHeight]arena.Handle) bool {
	n := s.Ar.At(c.curr)
	for l := c.level; l >= 0; l-- {
		c.level = l
		nextH := s.Guard.Link(c.tx, c.tid, c.curr, n.next[l].Load(c.tx))
		for !nextH.IsNil() && nextH != stopAt {
			// One node visit, as in run: the key, and the link only past it.
			next := s.Ar.At(nextH)
			nk, link, more := stm.LoadBelow(c.tx, &next.key, &next.next[l], key)
			nk = s.Guard.Word(c.tx, c.tid, nextH, nk)
			if nk == key && stopAt.IsNil() {
				return false // duplicate insert
			}
			if !more {
				break // nk > key, or (defensive) a distinct node with an equal key
			}
			c.curr, n = nextH, next
			nextH = s.Guard.Link(c.tx, c.tid, nextH, link)
		}
		preds[l] = c.curr
	}
	return true
}

// linkNode allocates a node of height h holding key and links it in after
// preds[0:h].
func (s *SkipList) linkNode(tx *stm.Tx, tid int, key uint64, h int, preds *[MaxHeight]arena.Handle) {
	nh, n := s.Alloc(tx, tid)
	n.key.Store(tx, key)
	n.height.Store(tx, uint64(h))
	n.dead.Store(tx, 0)
	for l := 0; l < h; l++ {
		p := s.Ar.At(preds[l])
		n.next[l].Store(tx, uint64(s.Guard.Link(tx, tid, preds[l], p.next[l].Load(tx))))
		p.next[l].Store(tx, uint64(nh))
	}
}

// unlinkNode splices victim (of height vh) out from after preds[0:vh] and
// hands it to the link: a single Unlinked — for ModeRR a single Revoke —
// per removal, independent of height.
func (s *SkipList) unlinkNode(tx *stm.Tx, tid int, victim arena.Handle, vh int, preds *[MaxHeight]arena.Handle) {
	v := s.Ar.At(victim)
	for l := 0; l < vh; l++ {
		s.Ar.At(preds[l]).next[l].Store(tx, uint64(s.Guard.Link(tx, tid, victim, v.next[l].Load(tx))))
	}
	s.Unlinked(tx, tid, victim)
}

// Insert implements sets.Set. The new node's height is drawn before the
// traversal so window cuts can stop at the level where predecessor
// collection must begin.
func (s *SkipList) Insert(tid int, key uint64) bool {
	h := s.randHeight(tid)
	var res bool
	s.Op(tid, func(tx *stm.Tx) (more bool) {
		res = false
		start, level, held, budget := s.Start(tx, tid, s.head, top)
		c := &searchCtx{tx: tx, tid: tid, curr: start, level: int(level)}

		// Phase 1: hand-over-hand down to level h (cuts allowed, the
		// descent stops at level h so phase 2 owns h-1..0).
		if c.level >= h {
			switch s.run(c, key, budget, h, h) {
			case advMatched:
				// key exists (met at a level >= h)
				s.Link.Drop(tx, tid, held)
				return false
			case advCut:
				s.Link.Hold(tx, tid, held, c.curr, uint64(c.level))
				return true
			case advStopped:
				c.level-- // step below the boundary into phase 2
			}
		}
		// Phase 2: collect predecessors for levels min(c.level, h-1)
		// down to 0 and link, all in this transaction.
		var preds [MaxHeight]arena.Handle
		for l := h - 1; l > c.level; l-- {
			// Resume level was already below h-1 (possible only on
			// the first window when h == MaxHeight): the untouched
			// upper levels' predecessor is the traversal origin.
			preds[l] = c.curr
		}
		if !s.collectPreds(c, key, arena.Nil, &preds) {
			// duplicate at a level below h
			s.Link.Drop(tx, tid, held)
			return false
		}
		s.linkNode(tx, tid, key, h, &preds)
		res = true
		s.Link.Drop(tx, tid, held)
		return false
	})
	return res
}

// Remove implements sets.Set. A fresh traversal first meets the victim at
// its top level, from which the victim's predecessors at every level are
// collected and the unlink + Revoke + free happen in one transaction (a
// single Revoke per removal, independent of height). A resumed traversal
// can meet the victim below its top; in that case the hold is dropped and
// the operation retries with one uncut traversal.
func (s *SkipList) Remove(tid int, key uint64) bool {
	var res bool
	full := false
	s.Op(tid, func(tx *stm.Tx) (more bool) {
		res = false
		start, level, held, budget := s.Start(tx, tid, s.head, top)
		if full {
			start, level, held, budget = s.head, top, false, unbounded
		}
		c := &searchCtx{tx: tx, tid: tid, curr: start, level: int(level)}
		switch s.run(c, key, budget, 0, 0) {
		case advStopped:
			s.Link.Drop(tx, tid, held)
			return false
		case advCut:
			s.Link.Hold(tx, tid, held, c.curr, uint64(c.level))
			return true
		case advMatched:
		}
		victim := s.Guard.Link(tx, tid, c.curr, s.Ar.At(c.curr).next[c.level].Load(tx))
		if victim.IsNil() {
			// Only a poisoned link defuses to Nil after advMatched; this
			// attempt is doomed — restart with a full descent.
			s.Link.Drop(tx, tid, held)
			full = true
			return true
		}
		vh := int(s.Guard.Word(tx, tid, victim, s.Ar.At(victim).height.Load(tx)))
		if c.level != vh-1 {
			// Met the victim under its tower (resumed traversal):
			// restart with a full descent that sees its top.
			s.Link.Drop(tx, tid, held)
			full = true
			return true
		}
		var preds [MaxHeight]arena.Handle
		if !s.collectPreds(c, key, victim, &preds) {
			panic("skiplist: unreachable: duplicate key beside victim")
		}
		s.unlinkNode(tx, tid, victim, vh, &preds)
		res = true
		s.Link.Drop(tx, tid, held)
		return false
	})
	return res
}
