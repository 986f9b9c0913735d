package skiplist

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/loadgen"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// TestPassSharesWindows: 8-op passes on a 32 768-key RR-V skiplist at
// W = 32 (one shard of the benchmark's scan-sharded workload, whose
// prefill is itself passes of 64 inserts) take fewer window commits per op
// than the same ops through the point methods, which run about 1.36.
func TestPassSharesWindows(t *testing.T) {
	const keys = 1 << 15
	var fill []sets.Op
	for _, i := range rand.New(rand.NewSource(1)).Perm(keys) {
		fill = append(fill, sets.Op{Kind: sets.OpInsert, Key: 2*uint64(i) + 1})
	}
	rng := rand.New(rand.NewSource(2))
	bursts := make([][]sets.Op, 400)
	for i := range bursts {
		for range 8 {
			bursts[i] = append(bursts[i], sets.Op{Kind: sets.OpKind(rng.Intn(3)), Key: 1 + uint64(rng.Intn(2*keys))})
		}
	}
	perOp := func(run func(s *SkipList, ops []sets.Op)) float64 {
		s := New(Config{RRKind: core.KindV, Threads: 1, Window: core.Window{W: 32}})
		s.Register(0)
		for i := 0; i < keys; i += 64 {
			s.Pass(0, fill[i:i+64])
		}
		before := s.TMStats().Commits
		for _, ops := range bursts {
			run(s, ops)
		}
		return float64(s.TMStats().Commits-before) / float64(8*len(bursts))
	}
	pass := perOp(func(s *SkipList, ops []sets.Op) { s.Pass(0, ops) })
	point := perOp(func(s *SkipList, ops []sets.Op) {
		for _, op := range ops {
			sets.Do(s, 0, op)
		}
	})
	t.Logf("commits per op: %.3f in 8-op passes, %.3f one at a time", pass, point)
	if pass >= point {
		t.Errorf("passes take %.3f commits per op, no fewer than the point methods' %.3f", pass, point)
	}
}

// TestPassWindowsStoreOnce: a skiplist pass window, whose ops each descend
// from the head, ends after its first op that stores — an insert of height
// h stores 4 + 2h cells, up to 44, which after another op's stores would
// outgrow the 32 a context's write log starts with — and once it has read
// half the 256-entry read log. Over a pass of 4 096 inserts and 8-op passes
// of every kind, no op starts in a window that has stored, every window's
// reads stay within the read log, and every key lands at a height the
// levels agree on.
func TestPassWindowsStoreOnce(t *testing.T) {
	s := New(Config{RRKind: core.KindV, Threads: 1, Window: core.Window{W: 32}})
	s.Register(0)
	rng := rand.New(rand.NewSource(3))
	passes := [][]sets.Op{nil}
	for _, i := range rng.Perm(4096) {
		passes[0] = append(passes[0], sets.Op{Kind: sets.OpInsert, Key: 2*uint64(i) + 1})
	}
	for range 400 {
		var ops []sets.Op
		for range 8 {
			ops = append(ops, sets.Op{Kind: sets.OpKind(rng.Intn(3)), Key: 1 + uint64(rng.Intn(8192))})
		}
		passes = append(passes, ops)
	}
	model := map[uint64]bool{}
	late, maxReads := 0, 0
	for _, ops := range passes {
		out := s.Chassis.Pass(0, ops, s.head, top, nil, func(tx *stm.Tx, tid int, op sets.Op, start arena.Handle, word uint64, budget int) (bool, arena.Handle, uint64, int, bool) {
			if tx.Writes() != 0 {
				late++
			}
			res, at, atWord, steps, done := s.visit(tx, tid, op, start, word, budget)
			maxReads = max(maxReads, tx.Reads())
			return res, at, atWord, steps, done
		})
		for i, op := range ops {
			want := model[op.Key]
			switch op.Kind {
			case sets.OpInsert:
				want, model[op.Key] = !want, true
			case sets.OpRemove:
				delete(model, op.Key)
			}
			if out[i] != want {
				t.Fatalf("%v answered %v, want %v", op, out[i], want)
			}
		}
	}
	if late != 0 || maxReads > 256 {
		t.Errorf("%d ops started after a store in their window; the most reads in a window were %d (want 0 and at most 256)", late, maxReads)
	}
	var keys []uint64
	for k := range model {
		keys = append(keys, k)
	}
	if got := s.Snapshot(); !sets.KeysEqual(got, keys) || !s.ValidateLevels() {
		t.Errorf("after the passes: %d keys of %d, levels valid %v", len(got), len(keys), s.ValidateLevels())
	}
}

// TestPassStallBound is the torture package's parked scan (TestStallBound)
// for a pass, beside it: the skiplist's pass of 8 ops parks after op j —
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
			s := New(Config{Mode: mode, RRKind: core.KindV, Threads: 2, Window: core.Window{W: 8}})
			passStall(t, s, j, func(ops []sets.Op, park func(reclaim.Visit) reclaim.Visit) []sets.Result {
				return s.Chassis.Pass(0, ops, s.head, top, nil, park(s.visit))
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
