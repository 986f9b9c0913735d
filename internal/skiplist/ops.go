package skiplist

import (
	"hohtx/internal/arena"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Traversal engine. step is one window of an operation, the skiplist's one
// descent: the chassis's Op (stm.Runtime.Chain) runs it window by window for
// Lookup, Insert and Remove, the chassis's Apply runs it uncut, once per op
// of a batch, and the chassis's Pass runs it window by window once per op of
// a pass (visit), each op from the head, the ops sharing windows.
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
// landed under the victim's tower). Inside a batch's uncut descent that
// cannot happen unless the snapshot is doomed.

// searchCtx carries one window transaction's traversal frame. Where run
// stops short of a cut, next is curr's successor at level (Nil at the end of
// the level), the first node at or past the key, and nk its key.
type searchCtx struct {
	tx    *stm.Tx
	tid   int
	curr  arena.Handle
	level int
	steps int
	next  arena.Handle
	nk    uint64
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
// goes on past it at this level, the cell that leads on (onward), in one
// stm call. On a tower level that cell is the tower's handle, and the
// link is one more load, from the tower, which the descent keeps for the
// levels it drops through there. Only a drop of a level reads a link on
// its own.
func (s *SkipList) run(c *searchCtx, key uint64, budget, noCutBelow, stopLevel int) advanceResult {
	n := s.Ar.At(c.curr) // translated once per node, carried across levels
	var tw *tower        // n's, while the descent is on a tower level
	if c.level >= nodeLevels {
		tw = s.towerOf(c.tx, c.tid, c.curr, n)
	}
	nextH := s.Guard.Link(c.tx, c.tid, c.curr, link(n, tw, c.level).Load(c.tx))
	for {
		if !nextH.IsNil() {
			bound := key
			if c.steps >= budget && c.level >= noCutBelow {
				bound = 0 // a cut here: the next node's link is not read
			}
			next := s.Ar.At(nextH)
			nk, on, more := stm.LoadBelow(c.tx, &next.key, onward(next, c.level), bound)
			nk = s.Guard.Word(c.tx, c.tid, nextH, nk)
			if nk == key {
				c.next, c.nk = nextH, nk
				return advMatched
			}
			if nk < key {
				if !more {
					return advCut
				}
				c.curr, n = nextH, next
				c.steps++
				if c.level >= nodeLevels { // s.tower, by hand: it does not inline
					tw = &noTower
					if th := s.Guard.Link(c.tx, c.tid, nextH, on); !th.IsNil() {
						tw = s.towers.At(th)
					}
					on = tw.next[c.level-nodeLevels].Load(c.tx)
				}
				nextH = s.Guard.Link(c.tx, c.tid, nextH, on)
				continue
			}
			c.nk = nk
		}
		if c.level <= stopLevel {
			c.next = nextH
			return advStopped
		}
		c.level--
		nextH = s.Guard.Link(c.tx, c.tid, c.curr, link(n, tw, c.level).Load(c.tx))
	}
}

// top is the word of a traversal that starts at the head: its top level.
const top = MaxHeight - 1

// op runs op (h is an insert's drawn height) under the chassis's Op.
func (s *SkipList) op(tid int, op sets.Op, h int) (res bool) {
	s.Op(tid, s.head, top, func(tx *stm.Tx, start arena.Handle, level uint64, budget int) (at arena.Handle, atLevel uint64, more bool) {
		res, at, atLevel, more = s.step(&searchCtx{tx: tx, tid: tid, curr: start, level: int(level)}, op, h, budget)
		return at, atLevel, more
	})
	return res
}

// heightShift places an insert's height above the resume level in the word
// a pass holds, so every window of the insert links it at one height.
const heightShift = 8

// visit is op's share of a pass window (reclaim.Visit) from (start, word):
// the step, with the steps it took. An insert draws its height in its first
// window, as Apply's step does, and carries it past a cut in the hold's
// word.
func (s *SkipList) visit(tx *stm.Tx, tid int, op sets.Op, start arena.Handle, word uint64, budget int) (bool, arena.Handle, uint64, int, bool) {
	h := int(word >> heightShift)
	if op.Kind == sets.OpInsert && h == 0 {
		h = s.randHeight(tid)
	}
	c := &searchCtx{tx: tx, tid: tid, curr: start, level: int(word & (1<<heightShift - 1))}
	res, at, atLevel, more := s.step(c, op, h, budget)
	return res, at, atLevel | uint64(h)<<heightShift, c.steps, !more
}

// step is one window of op from c's frame, taking at most budget steps, as
// reclaim.Window returns it, with op's result when the window ends the
// operation.
func (s *SkipList) step(c *searchCtx, op sets.Op, h, budget int) (res bool, at arena.Handle, atLevel uint64, more bool) {
	switch op.Kind {
	case sets.OpLookup:
		r := s.run(c, op.Key, budget, 0, 0)
		if r == advCut {
			return false, c.curr, uint64(c.level), true
		}
		return r == advMatched, arena.Nil, 0, false
	case sets.OpInsert:
		return s.insert(c, op.Key, h, budget)
	}
	return s.remove(c, op.Key, budget)
}

// collectPreds advances the frame along each level from c.level down to 0,
// recording the final predecessor per level in preds. It returns false
// (duplicate found) if a node with the key is encountered; stopAt, when
// non-Nil, treats that node as the search boundary instead (the remove
// path, where the "duplicate" is the victim itself).
func (s *SkipList) collectPreds(c *searchCtx, key uint64, stopAt arena.Handle, preds *[MaxHeight]arena.Handle) bool {
	n := s.Ar.At(c.curr)
	var tw *tower // n's, on a tower level, as in run
	if c.level >= nodeLevels {
		tw = s.towerOf(c.tx, c.tid, c.curr, n)
	}
	for l := c.level; l >= 0; l-- {
		c.level = l
		nextH := s.Guard.Link(c.tx, c.tid, c.curr, link(n, tw, l).Load(c.tx))
		for !nextH.IsNil() && nextH != stopAt {
			// One node visit, as in run: the key, and what leads on only past it.
			next := s.Ar.At(nextH)
			nk, on, more := stm.LoadBelow(c.tx, &next.key, onward(next, l), key)
			nk = s.Guard.Word(c.tx, c.tid, nextH, nk)
			if nk == key && stopAt.IsNil() {
				return false // duplicate insert
			}
			if !more {
				break // nk > key, or (defensive) a distinct node with an equal key
			}
			c.curr, n = nextH, next
			if l >= nodeLevels {
				tw = s.tower(c.tx, c.tid, nextH, on)
				on = tw.next[l-nodeLevels].Load(c.tx)
			}
			nextH = s.Guard.Link(c.tx, c.tid, nextH, on)
		}
		preds[l] = c.curr
	}
	return true
}

// linkNode allocates a node of height h holding key — with a tower when h
// is above nodeLevels — and links it in after preds[0:h].
func (s *SkipList) linkNode(tx *stm.Tx, tid int, key uint64, h int, preds *[MaxHeight]arena.Handle) {
	nh, n := s.Alloc(tx, tid)
	th, tw := arena.Nil, (*tower)(nil)
	if h > nodeLevels {
		th, tw = s.newTower(tx, tid)
	}
	n.key.Store(tx, key)
	n.tower.Store(tx, uint64(th))
	n.height.Store(tx, uint64(h))
	n.dead.Store(tx, 0)
	for l := 0; l < h; l++ {
		p := s.linkOf(tx, tid, preds[l], l)
		link(n, tw, l).Store(tx, uint64(s.Guard.Link(tx, tid, preds[l], p.Load(tx))))
		p.Store(tx, uint64(nh))
	}
}

// unlinkNode splices victim (of height vh) out from after preds[0:vh] and
// hands it to the link: a single Unlinked — for ModeRR a single Revoke —
// per removal, independent of height. The victim's tower goes where the
// victim goes (freed).
func (s *SkipList) unlinkNode(tx *stm.Tx, tid int, victim arena.Handle, vh int, preds *[MaxHeight]arena.Handle) {
	v := s.Ar.At(victim)
	var vtw *tower
	if vh > nodeLevels {
		vtw = s.towerOf(tx, tid, victim, v)
	}
	for l := 0; l < vh; l++ {
		s.linkOf(tx, tid, preds[l], l).Store(tx, uint64(s.Guard.Link(tx, tid, victim, link(v, vtw, l).Load(tx))))
	}
	s.Unlinked(tx, tid, victim)
}

// Lookup implements sets.Set.
func (s *SkipList) Lookup(tid int, key uint64) bool {
	return s.op(tid, sets.Op{Kind: sets.OpLookup, Key: key}, 0)
}

// Insert implements sets.Set. The new node's height is drawn before the
// traversal so window cuts can stop at the level where predecessor
// collection must begin.
func (s *SkipList) Insert(tid int, key uint64) bool {
	return s.op(tid, sets.Op{Kind: sets.OpInsert, Key: key}, s.randHeight(tid))
}

// Remove implements sets.Set. A fresh traversal first meets the victim at
// its top level, from which the victim's predecessors at every level are
// collected and the unlink + Revoke + free happen in one transaction (a
// single Revoke per removal, independent of height). A resumed traversal
// can meet the victim below its top; in that case the hold is dropped and
// the operation retries with one uncut traversal.
func (s *SkipList) Remove(tid int, key uint64) bool {
	return s.op(tid, sets.Op{Kind: sets.OpRemove, Key: key}, 0)
}

// Apply implements sets.Set: the chassis's Apply with no chain function,
// each op the step run uncut from the head, in arrival order. An insert's
// step draws its height inside the transaction; a retry only redraws.
func (s *SkipList) Apply(tid int, ops []sets.Op) []sets.Result {
	return s.Chassis.Apply(tid, ops, s.head, top, nil, func(tx *stm.Tx, tid int, op sets.Op, start arena.Handle, level uint64) (bool, arena.Handle, uint64, bool) {
		h := 0
		if op.Kind == sets.OpInsert {
			h = s.randHeight(tid)
		}
		res, _, _, more := s.step(&searchCtx{tx: tx, tid: tid, curr: start, level: int(level)}, op, h, reclaim.Uncut)
		return res, arena.Nil, 0, more
	})
}

// Pass implements sets.Passer: the chassis's Pass with no chain function,
// each op its visit from the head, in arrival order, the ops sharing
// windows.
func (s *SkipList) Pass(tid int, ops []sets.Op) []sets.Result {
	return s.Chassis.Pass(tid, ops, s.head, top, nil, s.visit)
}

// insert is Insert's window from c, for a node of height h.
func (s *SkipList) insert(c *searchCtx, key uint64, h, budget int) (bool, arena.Handle, uint64, bool) {
	// Phase 1: hand-over-hand down to level h (cuts allowed, the descent
	// stops at level h so phase 2 owns h-1..0).
	if c.level >= h {
		switch s.run(c, key, budget, h, h) {
		case advMatched:
			return false, arena.Nil, 0, false // key exists (met at a level >= h)
		case advCut:
			return false, c.curr, uint64(c.level), true
		case advStopped:
			c.level-- // step below the boundary into phase 2
		}
	}
	// Phase 2: collect predecessors for levels min(c.level, h-1) down to 0
	// and link, all in this transaction.
	var preds [MaxHeight]arena.Handle
	for l := h - 1; l > c.level; l-- {
		// Resume level was already below h-1 (possible only on the first
		// window when h == MaxHeight): the untouched upper levels'
		// predecessor is the traversal origin.
		preds[l] = c.curr
	}
	if !s.collectPreds(c, key, arena.Nil, &preds) {
		return false, arena.Nil, 0, false // duplicate at a level below h
	}
	s.linkNode(c.tx, c.tid, key, h, &preds)
	return true, arena.Nil, 0, false
}

// remove is Remove's window from c. Meeting the victim anywhere but at its
// top level (a resumed traversal), or through a poisoned link, restarts
// from the root.
func (s *SkipList) remove(c *searchCtx, key uint64, budget int) (bool, arena.Handle, uint64, bool) {
	switch s.run(c, key, budget, 0, 0) {
	case advStopped:
		return false, arena.Nil, 0, false
	case advCut:
		return false, c.curr, uint64(c.level), true
	}
	tx, tid, victim := c.tx, c.tid, c.next
	vh := int(s.Guard.Word(tx, tid, victim, s.Ar.At(victim).height.Load(tx)))
	if c.level != vh-1 {
		return false, arena.Nil, 0, true // met under the victim's tower
	}
	var preds [MaxHeight]arena.Handle
	if !s.collectPreds(c, key, victim, &preds) {
		panic("skiplist: unreachable: duplicate key beside victim")
	}
	s.unlinkNode(tx, tid, victim, vh, &preds)
	return true, arena.Nil, 0, false
}
