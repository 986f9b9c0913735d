package reclaim

import (
	"strings"
	"testing"

	"hohtx/internal/arena"
	"hohtx/internal/stm"
)

func (n *linkNode) words(f func(*stm.Word, uint64), x uint64) {
	f(&n.dead, x)
	f(&n.val, x)
}

// newChassis assembles the chassis over the rig's node type, one sentinel
// included, and wraps its link in a countLink.
func newChassis(t *testing.T, lose int) (*Chassis[linkNode], *countLink, arena.Handle) {
	t.Helper()
	c := new(Chassis[linkNode])
	c.Init(Config{Threads: 1}.WithDefaults(2, 4), Layout[linkNode]{
		Words: (*linkNode).words,
		Dead:  func(h arena.Handle) *stm.Word { return &c.Ar.At(h).dead },
	})
	cl := &countLink{Link: c.Link, lose: lose}
	c.Link = cl
	root, _ := c.NewSentinel()
	c.Register(0)
	return c, cl, root
}

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

// TestChassisBracketsEveryOperation: Op, Batch and Cursor each open exactly
// one Begin/End pair however many transactions they run, and a Cursor
// whose consumer panics still closes its bracket.
func TestChassisBracketsEveryOperation(t *testing.T) {
	c, cl, root := newChassis(t, 0)
	ops := 0
	check := func(what string) {
		t.Helper()
		ops++
		if cl.begins != ops || cl.ends != ops {
			t.Fatalf("after %s: %d Begin and %d End, want %d each", what, cl.begins, cl.ends, ops)
		}
	}
	windows := 0
	c.Op(0, func(*stm.Tx) bool { windows++; return windows < 3 })
	check("an Op of three windows")
	c.Batch(0, 4, func(*stm.Tx) {})
	check("a Batch of four operations")

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

// TestBooksCatchALostFree: a link that skips one free leaves a node nobody
// owns, and the books check names it as the residual.
func TestBooksCatchALostFree(t *testing.T) {
	c, _, _ := newChassis(t, 1)
	var hs []arena.Handle
	c.Op(0, func(tx *stm.Tx) bool {
		hs = hs[:0]
		for i := 0; i < 3; i++ {
			h, n := c.Alloc(tx, 0)
			n.dead.Store(tx, 0)
			n.val.Store(tx, uint64(i))
			hs = append(hs, h)
		}
		return false
	})
	if err := c.Books(3).Check(true); err != nil {
		t.Fatalf("three nodes, three keys: %v", err)
	}
	c.Op(0, func(tx *stm.Tx) bool {
		for _, h := range hs {
			c.Unlinked(tx, 0, h)
		}
		return false
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
