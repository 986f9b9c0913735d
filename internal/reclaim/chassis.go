package reclaim

import (
	"math"

	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/obs"
	"hohtx/internal/pad"
	"hohtx/internal/stm"
)

// The structure chassis.
//
// Every TM-backed structure is the same machine around a different node: a
// TM runtime, a node arena, the link that carries a traversal from one
// window transaction to the next, the load-side guard, a window policy and
// the observability wiring. Chassis is that machine, assembled once and in
// the one order that is sound (Init). A structure embeds it and supplies a
// Layout — what its node is made of — and its traversals; everything a
// harness or a server asks a structure about itself (sets.Set's lifecycle
// half and every optional view beside it) is answered here.
//
// Reclamation safety, the free side. Every Free first retires the node's
// cell versions to the runtime's version fence (in every mode): a
// transaction that read its way to the node before the unlinking commit's
// write-back cannot then take a fresh read of the dead cells — the lifted
// versions force a snapshot extension, which fails on the rewritten link
// and aborts the attempt. Real HTM gets this from hardware conflict
// detection; without it a read-only window (which never revalidates at
// commit) could assemble a zombie snapshot from a recycled node, which is
// what the torture harness's sanitizer caught on singly/TMHP under a loaded
// scheduler. With Config.Guard set a freed node's value words are then
// overwritten with arena.PoisonWord (atomic stores: racing doomed readers
// stay race-detector clean) for Guard, the load side, to find. Both sweeps,
// and a sentinel's initialization, come from Layout.Words, so a cell a node
// type declares and its enumeration forgets is a failing test
// (TestWordsEnumerateEveryCell in each structure package), not a silent
// use-after-free window.

// Layout is what a structure tells the chassis about its node type N.
type Layout[N any] struct {
	// Words calls f(w, x) for every transactional cell of n, once each.
	Words func(n *N, f func(w *stm.Word, x uint64), x uint64)
	// Dead returns the logical-deletion cell of the node named by h; see
	// Nodes.Dead.
	Dead func(h arena.Handle) *stm.Word
	// Local builds the link of a mode that is not Generic, from the
	// structure's own node layout (the list's REF and ER). It runs with
	// the chassis's RT, Ar and Guard already in place. Nil means the
	// structure takes generic modes only.
	Local func(mode Mode, n Nodes) Link
	// PerKey is how many nodes one resident key costs (Books.PerKey), zero
	// meaning one; the external tree's is 2, a leaf and its router.
	PerKey uint64
	// Freed, when not nil, runs on every free of a node, with the freeing
	// tid, after the node's cells are fenced and before they are poisoned:
	// it gives back what the node owns outside its slot (the skiplist's
	// tower). See NewArena.
	Freed func(tid int, n *N)
}

// opState is one thread's operation stamp (reclamation-delay accounting),
// its Apply result and visit-order buffers and its Cursor's key buffer.
type opState struct {
	n     uint64
	out   []bool
	order []visit
	batch []uint64
	_     pad.Line
}

// Chassis carries what every TM-backed structure over node type N is built
// on. The exported fields are read on the traversal paths, directly.
type Chassis[N any] struct {
	RT *stm.Runtime
	Ar *arena.Arena[N]
	// Link is the mode's linking-and-reclamation mechanism (the seam,
	// link.go); Traits is Link.Traits(), read once.
	Link   Link
	Traits Traits
	Guard  Guard

	words       func(*N, func(*stm.Word, uint64), uint64)
	perKey      uint64 // Layout.PerKey
	sentinels   uint64 // nodes NewSentinel made
	win         core.Window
	ops         []opState
	obs         *obs.Domain
	scanWindows *obs.Histogram // window txs per Cursor (nil without Obs)
	scanRenavs  *obs.Histogram // re-navigations per Cursor (nil without Obs)
}

// Init assembles the chassis for cfg, whose defaults the structure has
// filled in (Config.WithDefaults). The order matters: the retire hook needs
// the runtime, the guard needs the arena's guard mode, the link needs all
// three, and only the link knows whether windows can be cut at all.
func (c *Chassis[N]) Init(cfg Config, lay Layout[N]) {
	c.RT = stm.NewRuntime(cfg.Profile)
	c.Ar = NewArena(cfg, c.RT, lay.Words, lay.Freed)
	c.words, c.win, c.perKey = lay.Words, cfg.Window, max(lay.PerKey, 1)
	c.ops = make([]opState, cfg.Threads)
	c.Guard = GuardFor(c.Ar)
	nodes := Nodes{
		Config: cfg, Dead: lay.Dead, Live: c.Ar.Live, Free: c.Ar.Free,
		Runtime: c.RT, Guard: c.Guard,
	}
	// The one place a structure's mechanism is chosen.
	if cfg.Mode.Generic() {
		c.Link = New(cfg.Mode, nodes)
	} else if lay.Local != nil {
		c.Link = lay.Local(cfg.Mode, nodes)
	} else {
		panic("reclaim: mode " + cfg.Mode.String() + " needs a structure-local link this structure does not have")
	}
	c.Traits = c.Link.Traits()
	if c.Traits.WholeOp {
		c.win = core.Window{} // unbounded: a cut window could not be resumed
	}
	if cfg.Obs != nil {
		c.obs = cfg.Obs
		c.scanWindows = cfg.Obs.Hist(obs.HistAscendWindows, "txs")
		c.scanRenavs = cfg.Obs.Hist(obs.HistAscendRenavs, "navs")
		// One probe for the whole structure; a deferred link has already
		// handed the same one to its scheme (NewDeferred).
		p := cfg.Obs.TxProbe()
		c.RT.SetObserver(p)
		c.Ar.SetObserver(p)
	}
}

// NewArena builds an arena of T, whose cells words enumerates, for a
// structure over rt: cfg's policy, threads and guard. Every Free lifts each
// cell of the slot to rt's version fence, then runs freed (when not nil)
// with the freeing tid, then, with the guard on, poisons each cell. The
// chassis's node arena is one; a structure that keeps part of a node in a
// second arena (the skiplist's towers) builds that arena here too, so its
// cells are fenced and poisoned exactly like a node's.
func NewArena[T any](cfg Config, rt *stm.Runtime, words func(*T, func(*stm.Word, uint64), uint64), freed func(tid int, n *T)) *arena.Arena[T] {
	ar := arena.New[T](arena.Config{
		Policy: cfg.ArenaPolicy, Threads: cfg.Threads,
		Guard: cfg.Guard, AccessCheck: cfg.GuardSink,
	})
	ar.SetRetire(func(tid int, n *T) {
		words(n, (*stm.Word).Retire, rt.VersionFence())
		if freed != nil {
			freed(tid, n)
		}
	})
	if cfg.Guard {
		ar.SetPoison(func(n *T) { words(n, (*stm.Word).Poison, arena.PoisonWord) })
	}
	return ar
}

// NewSentinel allocates a node with every cell zero. Sentinels are
// construction-time only (never shared before the constructor returns), so
// non-transactional initialization is safe here and only here.
func (c *Chassis[N]) NewSentinel() (arena.Handle, *N) {
	c.sentinels++
	h := c.Ar.Alloc(0)
	n := c.Ar.At(h)
	c.words(n, (*stm.Word).Init, 0)
	return h, n
}

// Alloc allocates a node inside tid's transaction and announces it to the
// link; the node goes back to the arena if the attempt aborts. The caller
// must initialize every cell with transactional stores: the slot may be
// recycled, and a doomed reader may still hold a stale handle to it (see
// package arena).
func (c *Chassis[N]) Alloc(tx *stm.Tx, tid int) (arena.Handle, *N) {
	h := c.Ar.Alloc(tid)
	c.Link.Born(tx, tid, h)
	return h, c.Ar.At(h)
}

// Unlinked hands a node this transaction just unlinked to the link, stamped
// with the thread's operation count.
func (c *Chassis[N]) Unlinked(tx *stm.Tx, tid int, h arena.Handle) {
	c.Link.Unlinked(tx, tid, h, c.ops[tid].n)
}

// Window is one window transaction of an operation (Listing 5's Apply, the
// part a structure supplies). From start, with word — the structure's to
// define (the skiplist's level) — and taking at most budget steps, it does
// what it finds there and returns where it stops: at, with atWord, is where
// the thread's next window resumes, and Nil holds nothing; more says
// another window follows. A cut returns the node to resume from and more;
// an operation's end returns Nil, or (the doubly linked list's first remove
// phase) a node to stay held past it. more with a Nil at restarts the
// operation from the root: the window could not finish from where the cuts
// left it (the external tree's Remove resumed too close to its leaf to see
// the grandparent, the skiplist's Remove under its victim's tower), so the
// rest of the operation runs uncut.
type Window func(tx *stm.Tx, start arena.Handle, word uint64, budget int) (at arena.Handle, atWord uint64, more bool)

// Uncut is the budget of a window that runs its operation whole: a Step
// runs with it. An uncut window stops only where its operation ends, so one
// that still asks for more has met a poisoned link: its snapshot is doomed,
// and the caller restarts the transaction (tx.Restart).
const Uncut = math.MaxInt

// Op runs one operation of tid's as a chain of windows from root and
// rootWord (stm.Runtime.Chain is the loop): each window starts where the
// last one is held, or at the root if that hold is gone, and its end holds
// at or drops the hold when at is Nil. After a restart the budget is
// Uncut. (An attempt that asked for a restart and then aborted leaves the
// rest uncut too; that costs a larger transaction, never a wrong answer.)
//
// The operation runs inside one Link.Begin/End bracket. An operation that
// ends holding a node past it (the doubly linked list's first remove phase)
// stays inside that bracket until Release ends the hold.
func (c *Chassis[N]) Op(tid int, root arena.Handle, rootWord uint64, window Window) {
	c.ops[tid].n++
	c.Link.Begin(tid)
	uncut, past := false, false
	defer func() {
		if !past {
			c.Link.End(tid)
		}
	}()
	c.RT.Chain(tid, func(tx *stm.Tx) bool {
		start, word, held, budget := c.start(tx, tid, root, rootWord)
		if uncut {
			budget = Uncut
		}
		past = false
		at, atWord, more := window(tx, start, word, budget)
		c.settle(tx, tid, held, at, atWord)
		uncut = uncut || more && at.IsNil()
		past = !more && !at.IsNil()
		return more
	})
}

// OpKind selects an operation of a batch.
type OpKind uint8

const (
	// OpLookup tests presence (wire verb GET).
	OpLookup OpKind = iota
	// OpInsert adds the key (wire verb SET).
	OpInsert
	// OpRemove deletes the key (wire verb DEL).
	OpRemove
)

// Op is one operation of a batch.
type Op struct {
	Kind OpKind
	Key  uint64
}

// Step is one operation of an Apply, the structure's to supply (Listing 5's
// λfound and λnotfound behind its descent): op, run uncut from start and
// word. It returns op's result, and from and fromWord: a node below op's
// key where the next op on the same chain may start, Nil meaning at the
// chain's head. more, as for Uncut, says the snapshot is doomed.
type Step func(tx *stm.Tx, tid int, op Op, start arena.Handle, word uint64) (res bool, from arena.Handle, fromWord uint64, more bool)

// visit is one op of an Apply in visit order: its chain, its key and its
// index in arrival order.
type visit struct {
	chain arena.Handle
	key   uint64
	i     int
}

// before orders visits by (chain, key, arrival).
func (v visit) before(u visit) bool {
	return v.chain < u.chain || v.chain == u.chain && (v.key < u.key || v.key == u.key && v.i < u.i)
}

// sortVisits sorts an Apply's visits with a gapped insertion sort (Ciura's
// shellsort gaps): batches are small (the server caps them at a few
// thousand ops), nothing allocates, and the comparison inlines, which
// slices.SortFunc's does not.
func sortVisits(order []visit) {
	for _, gap := range [...]int{8929, 3905, 2161, 929, 505, 209, 109, 41, 19, 5, 1} {
		for i := gap; i < len(order); i++ {
			v, j := order[i], i
			for ; j >= gap && v.before(order[j-gap]); j -= gap {
				order[j] = order[j-gap]
			}
			order[j] = v
		}
	}
}

// Apply runs ops as tid's one transaction (sets.Set.Apply), each op its
// step run uncut, and returns one result per op, at its arrival index.
//
// The visit order is the structure's, chosen by chainOf. Without one (the
// trees and the skiplist) ops run in arrival order, each from root and
// rootWord: a tree grown from a sorted batch would be a spine. With one
// (the lists and the hash table) chainOf(key) is the head of key's chain,
// ops run sorted by (chain, key, arrival) — ops on one key keep program
// order, different keys commute inside one transaction — and each starts
// where the previous op on its chain left from, or at the head (with
// rootWord): one pass per chain, however many ops it carries.
//
// The result and order buffers are tid's and grow-only, so what Apply
// returns is valid until the same thread's next Apply — which every caller
// respects (the serving layer copies per-shard results out before the next
// shard runs); a fresh slice per batch was measurable GC pressure at wire
// speed. A batch whose footprint exceeds the transaction capacity commits
// in serial mode; stm.Stats.Batch records that per batch-size bucket.
func (c *Chassis[N]) Apply(tid int, ops []Op, root arena.Handle, rootWord uint64, chainOf func(key uint64) arena.Handle, step Step) []bool {
	if len(ops) == 0 {
		return nil
	}
	ts := &c.ops[tid]
	if cap(ts.out) < len(ops) {
		ts.out, ts.order = make([]bool, len(ops)), make([]visit, len(ops))
	}
	out, order := ts.out[:len(ops)], ts.order[:len(ops)]
	for i, op := range ops {
		order[i] = visit{root, op.Key, i}
		if chainOf != nil {
			order[i].chain = chainOf(op.Key)
		}
	}
	if chainOf != nil {
		sortVisits(order)
	}
	ts.n += uint64(len(ops))
	c.Link.Begin(tid)
	defer c.Link.End(tid)
	c.RT.AtomicBatchT(tid, len(ops), func(tx *stm.Tx) {
		from, fromWord := arena.Nil, uint64(0)
		for j, v := range order {
			start, word := v.chain, rootWord
			if chainOf != nil && j > 0 && v.chain == order[j-1].chain && !from.IsNil() {
				start, word = from, fromWord
			}
			var more bool
			if out[v.i], from, fromWord, more = step(tx, tid, ops[v.i], start, word); more {
				tx.Restart() // a doomed snapshot: see Uncut
			}
		}
	})
	return out
}

// Release ends the hold an Op of tid's left past its end, in a transaction
// of its own inside that Op's bracket, which closes when the transaction
// commits: then gets the held position, and whether the thread still holds
// it (the doubly linked list's second remove phase unlinks what its first
// phase left held).
func (c *Chassis[N]) Release(tid int, then func(tx *stm.Tx, h arena.Handle, held bool)) {
	defer c.Link.End(tid)
	c.RT.AtomicT(tid, func(tx *stm.Tx) {
		h, _, held := c.Link.Resume(tx, tid)
		c.Link.Drop(tx, tid, held)
		then(tx, h, held)
	})
}

// start resolves a window of tid's: where it begins — the thread's held
// position and word if its link still has them, root and rootWord
// otherwise — and how many steps it may take.
func (c *Chassis[N]) start(tx *stm.Tx, tid int, root arena.Handle, rootWord uint64) (h arena.Handle, word uint64, held bool, budget int) {
	if h, word, held = c.Link.Resume(tx, tid); held {
		return h, word, true, c.win.Next()
	}
	return root, rootWord, false, c.win.First(tx)
}

// settle ends a window of tid's: it holds at, with word, for the next
// window, or drops the hold when at is Nil. held is what the window's start
// reported.
func (c *Chassis[N]) settle(tx *stm.Tx, tid int, held bool, at arena.Handle, word uint64) {
	if at.IsNil() {
		c.Link.Drop(tx, tid, held)
	} else {
		c.Link.Hold(tx, tid, held, at, word)
	}
}

// Cursor is the ordered-iteration protocol behind sets.Ascender, whose
// weak-consistency contract it implements: the iterator's position *is* a
// hold. Each step runs one window transaction that resumes where the last
// one stopped, collects up to a budget of keys, and holds where it stops;
// the keys are delivered to fn between windows. If a concurrent Remove
// revokes the position (or a relaxed reservation loses it spuriously) the
// next window starts from root and re-navigates by key, so iteration always
// makes progress and never touches freed memory, while removals stay free
// to reclaim immediately.
//
// limit > 0 bounds the scan at that many keys (sets.Ascender.AscendN). A
// scan that knows its last key ends where that key is: the window that
// collects it stops there instead of walking on to its budget, and drops
// the hold in that same transaction, so a bounded scan leaves nothing for a
// trailing transaction to release.
//
// window is the structure's traversal: its point descent to last, then a
// collect along the bottom chain. From (start, word), taking at most
// budget steps, it appends every key >= last it passes to batch, ascending,
// and returns the node and word to hold — a node whose key is below every
// key not yet collected — or Nil when the structure is exhausted. It must
// stop at the budget even with nothing collected: re-navigation after a
// revocation stays windowed too. It also stops as soon as batch holds want
// keys; what it returns to hold is then not used.
//
// The hold is released and the Link.Begin/End bracket closed however the
// scan ends: exhaustion, the limit, fn returning false, or a panicking fn
// (the release is deferred, so the panic propagates with no hold left
// behind — a leaked hold would make the thread's next operation resume from
// a stale position and skip smaller keys). The key buffer is the thread's
// own and grow-only, so a scan allocates nothing once warm.
func (c *Chassis[N]) Cursor(tid int, from uint64, limit int, root arena.Handle, rootWord uint64, fn func(key uint64) bool,
	window func(tx *stm.Tx, start arena.Handle, word uint64, budget, want int, last uint64, batch []uint64) ([]uint64, arena.Handle, uint64)) {
	ts := &c.ops[tid]
	ts.n++
	last := from // the next key delivered must be >= last
	left := limit
	if left <= 0 {
		left = math.MaxInt // unbounded: no batch is ever that long
	}
	holding := false // a hold survives outside the current window
	windows, renavs := 0, 0
	c.Link.Begin(tid)
	defer func() {
		if holding {
			c.RT.AtomicT(tid, func(tx *stm.Tx) { c.Link.Drop(tx, tid, true) })
		}
		c.Link.End(tid)
		if c.scanWindows != nil {
			c.scanWindows.Record(uint64(windows))
			c.scanRenavs.Record(uint64(renavs))
		}
	}()
	for {
		var done, resumed bool
		c.RT.AtomicT(tid, func(tx *stm.Tx) {
			start, word, held, budget := c.start(tx, tid, root, rootWord)
			var at arena.Handle
			ts.batch, at, word = window(tx, start, word, budget, left, last, ts.batch[:0])
			if done, resumed = at.IsNil() || len(ts.batch) == left, held; done {
				at = arena.Nil
			}
			c.settle(tx, tid, held, at, word)
		})
		windows++
		if windows > 1 && !resumed {
			// The previous hold was gone: this window re-navigated by key.
			renavs++
		}
		holding = !done
		for _, k := range ts.batch {
			if !fn(k) {
				return
			}
			last = k + 1
		}
		if done {
			return
		}
		left -= len(ts.batch)
	}
}

// Name implements part of sets.Set: the variant label.
func (c *Chassis[N]) Name() string { return c.Link.Name() }

// Register implements part of sets.Set.
func (c *Chassis[N]) Register(tid int) { c.Link.Register(tid) }

// Finish implements part of sets.Set: it flushes tid's deferred reclamation.
func (c *Chassis[N]) Finish(tid int) { c.Link.Finish(tid, c.ops[tid].n) }

// ObsDomain implements sets.ObsReporter (nil when Config.Obs was nil).
func (c *Chassis[N]) ObsDomain() *obs.Domain { return c.obs }

// TMStats implements sets.TMStatsReporter.
func (c *Chassis[N]) TMStats() stm.Stats { return c.RT.Stats() }

// ReclaimStats implements sets.ReclaimReporter (zero for the precise modes).
func (c *Chassis[N]) ReclaimStats() Stats { return c.Link.Stats() }

// Books implements sets.BooksReporter: the nodes NewSentinel made, the
// Layout's nodes per key, the link's deferred remainder and Traits.
func (c *Chassis[N]) Books(keys uint64) Books {
	st := c.Link.Stats()
	return Books{
		Live: c.Ar.Stats().Live, Sentinels: c.sentinels, PerKey: c.perKey, Keys: keys,
		Deferred: st.Deferred, Leftover: st.Leftover, Traits: c.Traits,
	}
}

// Busy implements sets.BusyReporter.
func (c *Chassis[N]) Busy(tid int) bool { return c.RT.Busy(tid) }

// LiveNodes implements sets.MemoryReporter (sentinels included).
func (c *Chassis[N]) LiveNodes() uint64 { return c.Ar.Stats().Live }

// DeferredNodes implements sets.MemoryReporter.
func (c *Chassis[N]) DeferredNodes() uint64 { return c.Link.Stats().Deferred }

// GuardStats implements sets.GuardReporter (zero when guard mode is off).
func (c *Chassis[N]) GuardStats() arena.GuardStats { return c.Ar.GuardStats() }
