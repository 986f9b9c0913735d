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
// memory layout. They also share one loop over a chain (engine.go's walk):
// a point operation runs it window by window under the chassis's Op, and
// Apply runs it uncut under the chassis's Apply, sorted into one pass per
// chain, each op starting from the predecessor where the last one stopped.
// Where the walk ends, each list's terminal does what the op does there.
package list

import (
	"hohtx/internal/arena"
	"hohtx/internal/pad"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Mode selects the synchronization/reclamation mechanism; see reclaim.Mode
// for what each value means.
type Mode = reclaim.Mode

// The modes the lists' own code names: REF and ER, which are implemented
// here (the singly linked list and the hash table only) rather than in the
// seam.
const (
	ModeREF = reclaim.ModeREF
	ModeER  = reclaim.ModeER
)

// node is the shared node layout. Every field is a transactional cell;
// recycled nodes are re-initialized with transactional stores only (see
// the arena package comment for why). It has no cache-line pad: the STM
// detects conflicts per Word, so neighbors sharing a line never conflict,
// and a slot is its cells, 88 B (TestNodeLayout).
type node struct {
	key  stm.Word
	next stm.Word // arena.Handle bits; 0 = nil
	prev stm.Word // doubly linked list only
	dead stm.Word // TMHP/REF logical-deletion mark
	rc   stm.Word // REF reference count
}

// words is the node's one enumeration of its cells (reclaim.Layout.Words).
func (n *node) words(f func(*stm.Word, uint64), x uint64) {
	f(&n.key, x)
	f(&n.next, x)
	f(&n.prev, x)
	f(&n.dead, x)
	f(&n.rc, x)
}

// threadState is one thread's traversal scratch.
type threadState struct {
	marks []uint64 // ModeER: read marks of the last W spine nodes (nil otherwise)
	_     pad.Line
}

// Config parameterizes list construction; see reclaim.Config. A zero Profile
// means the paper's list setting (serial fallback after 2 failed attempts)
// and a zero Window, W = 8.
type Config = reclaim.Config

// List is the singly linked set (Listing 5): the chassis, a head sentinel
// and the traversals in engine.go and iter.go.
type List struct {
	reclaim.Chassis[node]
	head    arena.Handle
	threads []threadState
}

// New constructs a singly linked list set.
func New(cfg Config) *List {
	l := new(List)
	l.init(cfg)
	return l
}

// init builds the list in place (the chassis's hooks hold its address).
func (l *List) init(cfg Config) {
	cfg = cfg.WithDefaults(2, 8)
	l.threads = make([]threadState, cfg.Threads)
	l.Init(cfg, reclaim.Layout[node]{
		Words: (*node).words,
		Dead:  func(h arena.Handle) *stm.Word { return &l.Ar.At(h).dead },
		Local: l.localLink,
	})
	l.head, _ = l.NewSentinel()
}

// Lookup implements sets.Set.
func (l *List) Lookup(tid int, key uint64) bool {
	return l.run(tid, sets.Op{Kind: sets.OpLookup, Key: key}, l.head, l.at)
}

// Insert implements sets.Set.
func (l *List) Insert(tid int, key uint64) bool {
	return l.run(tid, sets.Op{Kind: sets.OpInsert, Key: key}, l.head, l.at)
}

// Remove implements sets.Set: Listing 5's Remove — unlink, revoke, reclaim
// at the commit.
func (l *List) Remove(tid int, key uint64) bool {
	return l.run(tid, sets.Op{Kind: sets.OpRemove, Key: key}, l.head, l.at)
}

// Apply implements sets.Set: one transaction, one sorted pass.
func (l *List) Apply(tid int, ops []sets.Op) []sets.Result {
	return l.apply(tid, ops, func(uint64) arena.Handle { return l.head }, l.at)
}

// at is the singly linked list's terminal (the list's and the hash table's
// buckets'): an insert links a new node after prevH, a remove unlinks currH.
func (l *List) at(tx *stm.Tx, tid int, op sets.Op, prevH, currH arena.Handle, found bool) (bool, bool) {
	switch {
	case op.Kind == sets.OpInsert && !found:
		l.Ar.At(prevH).next.Store(tx, uint64(l.allocNode(tx, tid, op.Key, currH, arena.Nil)))
	case op.Kind == sets.OpRemove && found:
		l.unlinkAndReclaim(tx, tid, prevH, currH)
	default:
		return op.Kind == sets.OpLookup && found, false
	}
	return true, false
}

// allocNode allocates and transactionally initializes a node holding key
// with successor nextH and (for the doubly linked list) predecessor prevH,
// returning its handle.
func (l *List) allocNode(tx *stm.Tx, tid int, key uint64, nextH, prevH arena.Handle) arena.Handle {
	nh, n := l.Alloc(tx, tid)
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
	l.Ar.At(prevH).next.Store(tx, uint64(l.Guard.Link(tx, tid, currH, l.Ar.At(currH).next.Load(tx))))
	l.Unlinked(tx, tid, currH)
}

// Snapshot implements sets.Set. Callers must ensure quiescence.
func (l *List) Snapshot() []uint64 {
	var out []uint64
	for h := arena.Handle(l.Ar.At(l.head).next.Raw()); !h.IsNil(); {
		n := l.Ar.At(h)
		out = append(out, n.key.Raw())
		h = arena.Handle(n.next.Raw())
	}
	return out
}
