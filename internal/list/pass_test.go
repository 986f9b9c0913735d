package list

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/loadgen"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/skiplist"
	"hohtx/internal/stm"
	"hohtx/internal/tree"
)

// passSet is a set with a pass.
type passSet interface {
	sets.Set
	sets.Passer
}

// passer is a passSet and the name its subtests run under.
type passer struct {
	name string
	passSet
}

// passers returns one singly linked list per mode under test, the hash
// table over RR-V, and the skiplist and both trees over RR-V, TMHP where
// the family takes it, and HTM, whose pass runs each op alone.
func passers(threads, w int) []passer {
	win := core.Window{W: w}
	h := NewHashTable(Config{Mode: reclaim.ModeRR, RRKind: core.KindV, Threads: threads, Window: win}, 4)
	out := []passer{{h.Name(), h}}
	for _, l := range variants(threads, w) {
		out = append(out, passer{l.Name(), l})
	}
	for _, m := range []reclaim.Mode{reclaim.ModeRR, reclaim.ModeTMHP, reclaim.ModeHTM} {
		cfg := Config{Mode: m, RRKind: core.KindV, Threads: threads, Window: win}
		s, e := skiplist.New(cfg), tree.NewExternal(cfg)
		out = append(out, passer{s.Name(), s}, passer{e.Name() + "/etree", e})
		if m != reclaim.ModeTMHP {
			i := tree.NewInternal(cfg)
			out = append(out, passer{i.Name() + "/itree", i})
		}
	}
	return out
}

// TestPassMatchesOneAtATime: a pass answers what its ops answer run one at
// a time in arrival order, and leaves the same keys, in every mode — the
// whole-op ones (HTM, ER) included, which run each op alone — on the lists,
// the hash table, the skiplist and both trees. Windows of 3 cut every pass
// many times; rounds carry repeated keys, so ops on one key keep their
// order inside a pass.
func TestPassMatchesOneAtATime(t *testing.T) {
	for _, s := range passers(1, 3) {
		t.Run(s.name, func(t *testing.T) {
			s.Register(0)
			rng := rand.New(rand.NewSource(7))
			model := map[uint64]bool{}
			for round := 0; round < 200; round++ {
				ops := make([]sets.Op, 1+rng.Intn(40))
				for i := range ops {
					ops[i] = sets.Op{Kind: sets.OpKind(rng.Intn(3)), Key: 1 + uint64(rng.Intn(64))}
				}
				got := s.Pass(0, ops)
				for i, op := range ops {
					want := model[op.Key]
					switch op.Kind {
					case sets.OpInsert:
						want = !want
						model[op.Key] = true
					case sets.OpRemove:
						delete(model, op.Key)
					}
					if got[i] != want {
						t.Fatalf("round %d op %d %v: got %v, want %v", round, i, op, got[i], want)
					}
				}
			}
			var keys []uint64
			for k := range model {
				keys = append(keys, k)
			}
			if got := s.Snapshot(); !sets.KeysEqual(got, keys) {
				t.Fatalf("snapshot %v, want %v", got, keys)
			}
		})
	}
}

// TestPassWindowsFit: under the modelled HTM capacity (448 cells) and each
// family's tuned window (64 for the lists, 32 for the skiplist and the
// external tree), no pass window needs the serial fallback — not a 4 096-op
// pass of inserts, whose windows end on their write sets (on the skiplist
// and the tree, after each insert), nor 4 096 lookups of one key, which pass
// no node and end on the step each op costs (or, from the root, on their
// reads), nor 8-op passes over 4 096 keys, whose windows mostly walk —
// while the same ops through Apply's one uncut transaction do.
func TestPassWindowsFit(t *testing.T) {
	const keys, maxBatch = 4096, 4096
	inserts := make([]sets.Op, maxBatch)
	for i, k := range rand.New(rand.NewSource(1)).Perm(keys) {
		inserts[i] = sets.Op{Kind: sets.OpInsert, Key: uint64(k) + 1}
	}
	same, first := make([]sets.Op, maxBatch), make([]sets.Op, maxBatch)
	for i := range same {
		same[i] = sets.Op{Kind: sets.OpLookup, Key: keys}
		first[i] = sets.Op{Kind: sets.OpLookup, Key: 1}
	}
	bursts := make([][]sets.Op, 50)
	rng := rand.New(rand.NewSource(2))
	for i := range bursts {
		bursts[i] = make([]sets.Op, 8)
		for j := range bursts[i] {
			bursts[i][j] = sets.Op{Kind: sets.OpKind(rng.Intn(3)), Key: 1 + uint64(rng.Intn(2*keys))}
		}
	}
	fill := make([]sets.Op, keys) // even keys, shuffled: a tree grown in order is a spine
	for i, k := range rand.New(rand.NewSource(3)).Perm(keys) {
		fill[i] = sets.Op{Kind: sets.OpInsert, Key: 2 * uint64(k+1)}
	}
	type shape struct {
		name    string
		prefill bool
		run     [][]sets.Op
	}
	listShapes := []shape{
		{fmt.Sprintf("inserts=%d", maxBatch), false, [][]sets.Op{inserts}},
		{fmt.Sprintf("keys=4096/lookups=%d", maxBatch), true, [][]sets.Op{same}},
		{"keys=4096/burst=8", true, bursts},
	}
	// From the root, a lookup of the first key passes no node but reads a
	// descent: the windows end on their reads.
	orderedShapes := []shape{listShapes[0], {fmt.Sprintf("keys=4096/first=%d", maxBatch), true, [][]sets.Op{first}}, listShapes[2]}
	type cell struct {
		name   string
		build  func() passSet
		shapes []shape
	}
	var cells []cell
	for _, cfg := range []Config{
		{Mode: reclaim.ModeRR, RRKind: core.KindV},
		{Mode: reclaim.ModeRR, RRKind: core.KindXO},
		{Mode: reclaim.ModeTMHP},
		{Mode: ModeREF},
	} {
		cfg.Threads, cfg.Window, cfg.Profile = 1, core.Window{W: 64}, stm.HTMProfile(2)
		cells = append(cells, cell{New(cfg).Name(), func() passSet { return New(cfg) }, listShapes})
	}
	ordered := Config{RRKind: core.KindV, Threads: 1, Window: core.Window{W: 32}, Profile: stm.HTMProfile(8)}
	cells = append(cells,
		cell{"RR-V/skip", func() passSet { return skiplist.New(ordered) }, orderedShapes},
		cell{"RR-V/etree", func() passSet { return tree.NewExternal(ordered) }, orderedShapes})
	for _, c := range cells {
		serial := func(batch bool, prefill bool, run [][]sets.Op) (stm.Stats, int) {
			s := c.build()
			s.Register(0)
			if prefill {
				s.Pass(0, fill)
			}
			tm := s.(sets.TMStatsReporter)
			before := tm.TMStats()
			n := 0
			for _, ops := range run {
				if batch {
					s.Apply(0, ops)
				} else {
					s.Pass(0, ops)
				}
				n += len(ops)
			}
			after := tm.TMStats()
			after.Commits -= before.Commits
			after.SerialCommits -= before.SerialCommits
			after.Aborts[stm.CauseCapacity] -= before.Aborts[stm.CauseCapacity]
			return after, n
		}
		for _, shape := range c.shapes {
			t.Run(c.name+"/"+shape.name, func(t *testing.T) {
				st, n := serial(false, shape.prefill, shape.run)
				t.Logf("pass: %d commits for %d ops", st.Commits, n)
				if st.SerialCommits != 0 || st.Aborts[stm.CauseCapacity] != 0 {
					t.Errorf("pass: %d serial commits, %d capacity aborts; want none", st.SerialCommits, st.Aborts[stm.CauseCapacity])
				}
				if st, _ := serial(true, shape.prefill, shape.run); st.SerialCommits == 0 {
					t.Errorf("Apply: no serial commit; the shape does not exceed the capacity, so it pins nothing")
				}
			})
		}
	}
}

// TestPassStallBound is the torture package's parked scan (TestStallBound)
// for a pass, beside it: the singly linked list's pass of 8 ops parks after op j —
// the window that did op j ends there and parks in its commit hook, inside
// the pass's bracket — while another thread churns inserts and removes.
// What the park holds back is each scheme's bound: nothing under RR-V, one
// scan batch under hazard pointers and VBR, the resident keys and a batch
// under hazard eras. Under epochs (TMEBR, registered here) the bracket
// holds everything retired during the park, and how much more grows with j
// is logged: the pass's own removes before the park.
func TestPassStallBound(t *testing.T) {
	for _, mode := range []reclaim.Mode{reclaim.ModeRR, reclaim.ModeTMHP, reclaim.ModeTMHE, reclaim.ModeTMVBR, ebrMode} {
		for _, j := range []int{0, 3, 7} {
			l := New(Config{Mode: mode, RRKind: core.KindV, Threads: 2, Window: core.Window{W: 8}})
			passStall(t, l, j, func(ops []sets.Op, park func(reclaim.Visit) reclaim.Visit) []sets.Result {
				return l.Chassis.Pass(0, ops, arena.Nil, 0, func(uint64) arena.Handle { return l.head }, park(l.visit))
			})
		}
	}
}

// ebrMode is epoch-based reclamation as a registered scheme: a pass's
// bracket is its epoch critical section.
var ebrMode = reclaim.RegisterScheme("TMEBR", reclaim.NewEpochs)

// The stall's shape, as TestStallBound's: resident keys at the park, and
// churn operations (alternate inserts and removes of random keys in twice
// that range) while it lasts. The pass works above that range.
const (
	stallResident = 256
	stallChurn    = 2000
	passBase      = 4 * stallResident
)

// stallSet is what passStall reads of a structure.
type stallSet interface {
	sets.Set
	sets.ReclaimReporter
	sets.BooksReporter
}

// passStall runs a pass of 8 ops on s through pass, whose visit park wraps
// so that it parks after op j, and churns on s beside the park. The ops
// remove the odd keys from passBase+1 and insert the even ones, in key order,
// so every op answers true.
func passStall(t *testing.T, s stallSet, j int, pass func(ops []sets.Op, park func(reclaim.Visit) reclaim.Visit) []sets.Result) {
	t.Helper()
	s.Register(0)
	s.Register(1)
	for k := uint64(2); k <= 2*stallResident; k += 2 {
		s.Insert(1, k)
	}
	ops := make([]sets.Op, 8)
	for i := range ops {
		k := uint64(passBase + 1 + i)
		if ops[i] = (sets.Op{Kind: sets.OpInsert, Key: k}); k%2 == 1 {
			s.Insert(1, k)
			ops[i].Kind = sets.OpRemove
		}
	}
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hook := func(_, _, _ uint64) { once.Do(func() { close(parked); <-release }) }
	park := func(visit reclaim.Visit) reclaim.Visit {
		return func(tx *stm.Tx, tid int, op sets.Op, start arena.Handle, word uint64, budget int) (bool, arena.Handle, uint64, int, bool) {
			res, at, atWord, steps, done := visit(tx, tid, op, start, word, budget)
			if done && op.Key == ops[j].Key {
				tx.OnCommitCall(hook, 0, 0, 0)
				steps = budget // the window ends after op j
			}
			return res, at, atWord, steps, done
		}
	}
	done := make(chan []sets.Result, 1)
	go func() { done <- pass(ops, park) }()
	var unpark sync.Once
	defer unpark.Do(func() { close(release) }) // a failed check must not leave the pass parked
	<-parked
	before := s.ReclaimStats()
	rng, resident := uint64(0x57a11), uint64(stallResident)
	for i := range stallChurn {
		if k := 1 + loadgen.SplitMix64(&rng)%(2*stallResident); i%2 == 0 {
			resident += b2u(s.Insert(1, k))
		} else {
			resident -= b2u(s.Remove(1, k))
		}
	}
	st := s.ReclaimStats()
	retired := st.Retired - before.Retired
	tr, name := s.Books(0).Traits, s.Name()
	const batch = reclaim.DefaultScanThreshold
	least, most := uint64(0), uint64(0)
	switch {
	case !tr.Deferred:
	case tr.StrandBound, strings.HasPrefix(name, "TMVBR"):
		most = batch
	case tr.Pins:
		most = stallResident + batch
	default: // epochs: the park holds the epoch
		least, most = retired, retired+uint64(j+1)
	}
	t.Logf("%s parked after op %d: %d retired, %d deferred (%d more)", name, j, retired, st.Deferred, int64(st.Deferred)-int64(retired))
	if tr.Deferred && retired == 0 {
		t.Fatalf("%s: degenerate churn: nothing retired", name)
	}
	if st.Deferred < least || st.Deferred > most {
		t.Errorf("%s parked after op %d: %d deferred (%d retired): want %d..%d", name, j, st.Deferred, retired, least, most)
	}
	unpark.Do(func() { close(release) })
	for i, r := range <-done {
		if !r {
			t.Errorf("%s: the parked pass's op %d (%v) answered false", name, i, ops[i])
		}
	}
	for range tr.DrainRounds {
		s.Finish(0)
		s.Finish(1)
	}
	if err := s.Books(resident + 4).Check(true); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
