package reclaim

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"hohtx/internal/arena"
	"hohtx/internal/stm"
)

func (n *linkNode) words(f func(*stm.Word, uint64), x uint64) {
	f(&n.dead, x)
	f(&n.val, x)
}

// newChassis assembles the chassis over the rig's node type under mode,
// one sentinel included, and wraps its link in a countLink.
func newChassis(t *testing.T, mode Mode, lose int) (*Chassis[linkNode], *countLink, arena.Handle) {
	t.Helper()
	c := new(Chassis[linkNode])
	c.Init(Config{Threads: 1, Mode: mode}.WithDefaults(2, 4), Layout[linkNode]{
		Words: (*linkNode).words,
		Dead:  func(h arena.Handle) *stm.Word { return &c.Ar.At(h).dead },
	})
	cl := &countLink{Link: c.Link, lose: lose}
	c.Link = cl
	root, _ := c.NewSentinel()
	c.Register(0)
	return c, cl, root
}

// countScheme is a deferred scheme over epochs that counts the operation
// brackets the deferred link forwards to it.
type countScheme struct {
	Scheme
	enters, exits atomic.Int64
}

func (s *countScheme) Enter(tid int) { s.enters.Add(1); s.Scheme.Enter(tid) }
func (s *countScheme) Exit(tid int)  { s.exits.Add(1); s.Scheme.Exit(tid) }

// countMode selects a countScheme; counted is the last one the mode table
// built.
var (
	counted   *countScheme
	countMode = RegisterScheme("TMCOUNT", func(n Nodes) Scheme {
		counted = &countScheme{Scheme: NewEpochs(n)}
		return counted
	})
)

// countLink is a link that counts the operation brackets it is given and
// loses the first lose nodes handed to Unlinked: they are never freed.
type countLink struct {
	Link
	begins, ends int
	lose         int
}

func (l *countLink) Begin(tid int) { l.begins++; l.Link.Begin(tid) }
func (l *countLink) End(tid int)   { l.ends++; l.Link.End(tid) }

func (l *countLink) Unlinked(tx *stm.Tx, tid int, h arena.Handle, stamp uint64) {
	if l.lose > 0 {
		l.lose--
		return
	}
	l.Link.Unlinked(tx, tid, h, stamp)
}

// TestChassisBracketsEveryOperation: Op, Apply and Cursor each open exactly
// one Begin/End pair however many transactions they run, an Op held past
// its end shares its pair with the Release that ends the hold, and a Cursor
// whose consumer panics still closes its bracket. Under a registered
// deferred scheme each pair reaches the scheme as one Enter and one Exit.
func TestChassisBracketsEveryOperation(t *testing.T) {
	for _, mode := range []Mode{ModeRR, countMode} {
		t.Run(mode.String(), func(t *testing.T) { bracketEveryOperation(t, mode) })
	}
}

// bracketEveryOperation runs an Op, an Apply, a Cursor and a Cursor whose
// consumer panics on a chassis under mode, checking after each that the
// link saw one more Begin/End pair, and the mode's scheme, when it is
// countMode, one more Enter/Exit.
func bracketEveryOperation(t *testing.T, mode Mode) {
	c, cl, root := newChassis(t, mode, 0)
	ops := 0
	check := func(what string) {
		t.Helper()
		ops++
		if cl.begins != ops || cl.ends != ops {
			t.Fatalf("after %s: %d Begin and %d End, want %d each", what, cl.begins, cl.ends, ops)
		}
		if mode != countMode {
			return
		}
		if in, out := counted.enters.Load(), counted.exits.Load(); in != int64(ops) || out != int64(ops) {
			t.Fatalf("after %s: the scheme saw %d Enter and %d Exit, want %d each", what, in, out, ops)
		}
	}
	windows := 0
	c.Op(0, root, 0, func(*stm.Tx, arena.Handle, uint64, int) (arena.Handle, uint64, bool) {
		windows++
		return arena.Nil, 0, windows < 3
	})
	check("an Op of three windows")
	c.Apply(0, make([]Op, 4), root, 0, nil, func(*stm.Tx, int, Op, arena.Handle, uint64) (bool, arena.Handle, uint64, bool) {
		return false, arena.Nil, 0, false
	})
	check("an Apply of four operations")

	// An Op that ends holding root (the doubly linked list's first remove
	// phase) stays in its bracket until its Release, which gets the hold.
	c.Op(0, root, 0, func(*stm.Tx, arena.Handle, uint64, int) (arena.Handle, uint64, bool) {
		return root, 0, false
	})
	if cl.ends != ops {
		t.Fatalf("the bracket closed under a hold past the operation: %d End, want %d", cl.ends, ops)
	}
	c.Release(0, func(_ *stm.Tx, h arena.Handle, held bool) {
		if h != root || !held {
			t.Errorf("Release got %v (held %v), want root held", h, held)
		}
	})
	check("an Op held past its end, and its Release")

	// A cursor over keys 1..3, one key per window, each window holding root.
	window := func(_ *stm.Tx, _ arena.Handle, _ uint64, _, _ int, last uint64, batch []uint64) ([]uint64, arena.Handle, uint64) {
		if last = max(last, 1); last > 3 {
			return batch, arena.Nil, 0
		}
		return append(batch, last), root, 0
	}
	var got []uint64
	c.Cursor(0, 0, 0, root, 0, func(k uint64) bool { got = append(got, k); return true }, window)
	if len(got) != 3 {
		t.Fatalf("the cursor delivered %v, want 1..3", got)
	}
	check("a Cursor of four windows")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the consumer's panic did not propagate")
			}
		}()
		c.Cursor(0, 0, 0, root, 0, func(k uint64) bool {
			if k == 2 {
				panic("consumer")
			}
			return true
		}, window)
	}()
	check("a Cursor whose consumer panicked")
}

// TestOpHoldsWhereAWindowStops: each window starts where the last one
// stopped — at the node and word it returned, with the full budget — and
// at the root after one that returned Nil, after which the operation runs
// uncut; the operation's end leaves nothing held.
func TestOpHoldsWhereAWindowStops(t *testing.T) {
	c, _, root := newChassis(t, ModeRR, 0)
	mid, _ := c.NewSentinel()
	type start struct {
		h      arena.Handle
		word   uint64
		budget int
	}
	var got []start
	stops := []start{{mid, 7, 0}, {arena.Nil, 0, 0}, {mid, 8, 0}, {arena.Nil, 0, 0}}
	c.Op(0, root, 5, func(_ *stm.Tx, h arena.Handle, word uint64, budget int) (arena.Handle, uint64, bool) {
		got = append(got, start{h, word, budget})
		at := stops[len(got)-1]
		return at.h, at.word, len(got) < len(stops)
	})
	if len(got) > 0 && got[0].budget >= 1 && got[0].budget <= 4 {
		got[0].budget = 4 // the first window's budget is scattered over 1..W
	}
	want := []start{{root, 5, 4}, {mid, 7, 4}, {root, 5, Uncut}, {mid, 8, Uncut}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("windows started at %v, want %v", got, want)
	}
	c.RT.AtomicT(0, func(tx *stm.Tx) {
		if _, _, held := c.Link.Resume(tx, 0); held {
			t.Error("a hold survived the operation's end")
		}
	})
}

// applyStart is where an Apply started one op: the op, and the node and
// word its step was given.
type applyStart struct {
	op    Op
	start arena.Handle
	word  uint64
}

// recordApply runs ops under c's Apply from root (word 5) with chainOf and
// a step that records where each op starts, answers whether the op is a
// lookup, and leaves from mid (with the op's key as the word) unless the op
// is an insert, which leaves from Nil. The step asks for a restart at the
// first op whose key is restartAt, once. It returns the starts of the
// attempt that committed, the results, and how many attempts ran.
func recordApply(c *Chassis[linkNode], ops []Op, root, mid arena.Handle, chainOf func(uint64) arena.Handle, restartAt uint64) (got []applyStart, out []bool, attempts int) {
	fresh, restarted := true, false
	out = c.Apply(0, ops, root, 5, chainOf, func(_ *stm.Tx, _ int, op Op, start arena.Handle, word uint64) (bool, arena.Handle, uint64, bool) {
		if fresh {
			got, attempts, fresh = got[:0], attempts+1, false
		}
		got = append(got, applyStart{op, start, word})
		if op.Key == restartAt && !restarted {
			fresh, restarted = true, true
			return false, arena.Nil, 0, true
		}
		if op.Kind == OpInsert {
			return false, arena.Nil, 0, false
		}
		return op.Kind == OpLookup, mid, op.Key, false
	})
	return got, out, attempts
}

// TestApplyVisitsInTheStructuresOrder: without a chain function Apply runs
// ops in arrival order, each from the root whatever the last op left from;
// with one, sorted by (chain, key, arrival), each starting where the last
// op on its chain left from, or at the chain's head after a Nil from or a
// change of chain. Either way results land at their arrival index, and a
// step that asks for more restarts the transaction.
func TestApplyVisitsInTheStructuresOrder(t *testing.T) {
	c, _, root := newChassis(t, ModeRR, 0)
	lo, _ := c.NewSentinel()
	hi, _ := c.NewSentinel()
	mid, _ := c.NewSentinel()
	if hi < lo {
		lo, hi = hi, lo
	}
	chainOf := func(k uint64) arena.Handle {
		if k < 5 {
			return lo
		}
		return hi
	}
	ops := []Op{{OpInsert, 7}, {OpLookup, 3}, {OpRemove, 7}, {OpLookup, 2}, {OpInsert, 12}, {OpLookup, 7}}
	wantOut := []bool{false, true, false, true, false, true}
	for _, tc := range []struct {
		name    string
		chainOf func(uint64) arena.Handle
		want    []applyStart
	}{
		{"arrival order", nil, []applyStart{
			{ops[0], root, 5}, {ops[1], root, 5}, {ops[2], root, 5},
			{ops[3], root, 5}, {ops[4], root, 5}, {ops[5], root, 5},
		}},
		{"by chain, key and arrival", chainOf, []applyStart{
			{ops[3], lo, 5}, {ops[1], mid, 2}, // chain lo: 2 leaves from mid
			{ops[0], hi, 5}, {ops[2], hi, 5}, // chain hi: the insert of 7 leaves from Nil
			{ops[5], mid, 7}, {ops[4], mid, 7}, // same-key ops in program order
		}},
	} {
		got, out, attempts := recordApply(c, ops, root, mid, tc.chainOf, 0)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: ops started at\n%v, want\n%v", tc.name, got, tc.want)
		}
		if fmt.Sprint(out) != fmt.Sprint(wantOut) || attempts != 1 {
			t.Errorf("%s: results %v in %d attempts, want %v in 1", tc.name, out, attempts, wantOut)
		}
	}
	before := c.RT.Stats().Aborts[stm.CauseExplicit]
	got, out, attempts := recordApply(c, ops, root, mid, chainOf, 7)
	if attempts != 2 || len(got) != len(ops) || fmt.Sprint(out) != fmt.Sprint(wantOut) {
		t.Errorf("a step asking for more: %d attempts, the last ran %d ops with results %v; want 2, %d and %v",
			attempts, len(got), out, len(ops), wantOut)
	}
	if n := c.RT.Stats().Aborts[stm.CauseExplicit] - before; n != 1 {
		t.Errorf("a step asking for more: %d restarts, want 1", n)
	}
}

// TestBooksCatchALostFree: a link that skips one free leaves a node nobody
// owns, and the books check names it as the residual.
func TestBooksCatchALostFree(t *testing.T) {
	c, _, root := newChassis(t, ModeRR, 1)
	var hs []arena.Handle
	c.Op(0, root, 0, func(tx *stm.Tx, _ arena.Handle, _ uint64, _ int) (arena.Handle, uint64, bool) {
		hs = hs[:0]
		for i := 0; i < 3; i++ {
			h, n := c.Alloc(tx, 0)
			n.dead.Store(tx, 0)
			n.val.Store(tx, uint64(i))
			hs = append(hs, h)
		}
		return arena.Nil, 0, false
	})
	if err := c.Books(3).Check(true); err != nil {
		t.Fatalf("three nodes, three keys: %v", err)
	}
	c.Op(0, root, 0, func(tx *stm.Tx, _ arena.Handle, _ uint64, _ int) (arena.Handle, uint64, bool) {
		for _, h := range hs {
			c.Unlinked(tx, 0, h)
		}
		return arena.Nil, 0, false
	})
	err := c.Books(0).Check(true)
	if err == nil || !strings.Contains(err.Error(), "residual +1") {
		t.Fatalf("books after a lost free: %v, want the residual +1 named", err)
	}
}

// TestBooksCheckCases states the equation's cases: precise, leak, and a
// deferred mode before and after its drain.
func TestBooksCheckCases(t *testing.T) {
	precise := Traits{DrainRounds: 1}
	deferred := Traits{Deferred: true, DrainRounds: 2}
	leak := Traits{Deferred: true, Leak: true, DrainRounds: 1}
	for _, tc := range []struct {
		name    string
		b       Books
		drained bool
		want    string // "" = balances
	}{
		{"precise", Books{Live: 5, Sentinels: 1, PerKey: 2, Keys: 2, Traits: precise}, true, ""},
		{"precise leak", Books{Live: 6, Sentinels: 1, PerKey: 2, Keys: 2, Traits: precise}, true, "residual +1"},
		{"precise deferring", Books{Live: 6, Sentinels: 1, PerKey: 2, Keys: 2, Deferred: 1, Traits: precise}, true, "precise mode: 1 deferred"},
		{"leak mode", Books{Live: 9, Sentinels: 1, PerKey: 2, Keys: 2, Deferred: 4, Traits: leak}, true, ""},
		{"before drain", Books{Live: 7, Sentinels: 1, PerKey: 2, Keys: 2, Deferred: 2, Leftover: 2, Traits: deferred}, false, ""},
		{"after drain", Books{Live: 7, Sentinels: 1, PerKey: 2, Keys: 2, Deferred: 2, Leftover: 2, Traits: deferred}, true, "2 leftover"},
		{"missing node", Books{Live: 4, Sentinels: 1, PerKey: 2, Keys: 2, Traits: deferred}, true, "residual -1"},
	} {
		err := tc.b.Check(tc.drained)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: Check = %v, want %q", tc.name, err, tc.want)
		}
	}
}
