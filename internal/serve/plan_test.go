package serve

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"hohtx/internal/sets"
)

// TestSplitByShard pins the plan's two promises: within a shard the ops
// keep their arrival order, and the index is a permutation of the batch
// (every op lands on exactly one shard, the one its key routes to). The
// plan's buffers are reused, so a second split must not see the first.
func TestSplitByShard(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var plan shardPlan
	for _, shards := range []int{1, 2, 3, 7} {
		for round := 0; round < 20; round++ {
			ops := make([]sets.Op, rng.Intn(100))
			for i := range ops {
				ops[i] = sets.Op{Kind: sets.OpKind(rng.Intn(3)), Key: 1 + uint64(rng.Intn(50))}
			}
			splitByShard(&plan, ops, shards)
			if len(plan.ops) != shards || len(plan.idx) != shards {
				t.Fatalf("%d shards: plan has %d/%d parts", shards, len(plan.ops), len(plan.idx))
			}
			seen := make([]bool, len(ops))
			for sh := range plan.ops {
				if len(plan.ops[sh]) != len(plan.idx[sh]) {
					t.Fatalf("shard %d: %d ops, %d positions", sh, len(plan.ops[sh]), len(plan.idx[sh]))
				}
				for j, i := range plan.idx[sh] {
					if j > 0 && i <= plan.idx[sh][j-1] {
						t.Fatalf("shard %d: positions %v not in arrival order", sh, plan.idx[sh])
					}
					if seen[i] {
						t.Fatalf("batch position %d planned twice", i)
					}
					seen[i] = true
					if plan.ops[sh][j] != ops[i] || ShardOf(ops[i].Key, shards) != sh {
						t.Fatalf("shard %d slot %d holds %+v, batch[%d] = %+v", sh, j, plan.ops[sh][j], i, ops[i])
					}
				}
			}
			for i, ok := range seen {
				if !ok {
					t.Fatalf("batch position %d not planned", i)
				}
			}
		}
	}
}

// chunked serves disjoint sorted key lists to mergeAscend a chunk at a
// time, the way a shard's cursor does, and counts the refills.
type chunked struct {
	parts   [][]uint64
	chunk   int
	refills int
	failAt  int // refill number that fails (0 = never)
}

var errRefill = errors.New("refill failed")

func (s *chunked) refill(i int, cur *shardCursor, max int) error {
	s.refills++
	if s.refills == s.failAt {
		return errRefill
	}
	n := min(s.chunk, max, len(s.parts[i]))
	cur.buf, cur.head = append(cur.buf[:0], s.parts[i][:n]...), 0
	s.parts[i] = s.parts[i][n:]
	cur.done = len(s.parts[i]) == 0
	return nil
}

func disjointParts(rng *rand.Rand, shards, keys int) (parts [][]uint64, all []uint64) {
	parts = make([][]uint64, shards)
	for _, k := range rng.Perm(keys * 3)[:keys] {
		sh := rng.Intn(shards)
		parts[sh] = append(parts[sh], uint64(k+1))
		all = append(all, uint64(k+1))
	}
	for _, p := range parts {
		sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return parts, all
}

// TestMergeAscend pins the merge: over disjoint sorted inputs the stream
// is strictly ascending and delivers every key exactly once (including
// through empty shards and chunk boundaries); emit → false stops it
// without another refill; a refill error comes back with nothing emitted
// after it.
func TestMergeAscend(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, shards := range []int{1, 2, 3, 5} {
		for _, keys := range []int{0, 1, 7, 64, 200} {
			parts, want := disjointParts(rng, shards, keys)
			src := &chunked{parts: parts, chunk: 8}
			var got []uint64
			err := mergeAscend(make([]shardCursor, shards), 0, src.refill, func(k uint64) bool {
				got = append(got, k)
				return true
			})
			if err != nil || !sets.KeysEqual(got, want) {
				t.Fatalf("%d shards, %d keys: err %v, got %v, want %v", shards, keys, err, got, want)
			}
		}
	}

	parts, want := disjointParts(rng, 3, 90)
	src := &chunked{parts: parts, chunk: 8}
	var got []uint64
	var refillsAtStop int
	err := mergeAscend(make([]shardCursor, 3), 0, src.refill, func(k uint64) bool {
		got = append(got, k)
		refillsAtStop = src.refills
		return len(got) < 40
	})
	if err != nil || !sets.KeysEqual(got, want[:40]) {
		t.Fatalf("bounded merge: err %v, got %v, want %v", err, got, want[:40])
	}
	if src.refills != refillsAtStop {
		t.Fatalf("merge refilled %d more time(s) after emit returned false", src.refills-refillsAtStop)
	}

	parts, _ = disjointParts(rng, 3, 90)
	src = &chunked{parts: parts, chunk: 8, failAt: 5}
	emittedAfter := 0
	err = mergeAscend(make([]shardCursor, 3), 0, src.refill, func(uint64) bool {
		if src.refills >= src.failAt {
			emittedAfter++
		}
		return true
	})
	if !errors.Is(err, errRefill) || emittedAfter != 0 {
		t.Fatalf("failed refill: err %v, %d key(s) emitted after it", err, emittedAfter)
	}
}

// countingShard is one shard's sorted keys behind sets.Ascender, counting
// what a merge asks of it and what it hands over.
type countingShard struct {
	keys   []uint64
	pulled bool // at least once
	log    *pullLog
}

// pullLog is the books of one merge over countingShards.
type pullLog struct {
	first     int  // keys asked for by each shard's first pull, summed
	refills   int  // pulls after a shard's first
	refillAsk int  // keys those asked for, summed
	pulled    int  // keys handed over
	stopped   bool // emit has returned false
	late      int  // pulls begun after that
}

func (s *countingShard) Ascend(tid int, from uint64, fn func(uint64) bool) error {
	return s.AscendN(tid, from, 0, fn)
}

func (s *countingShard) AscendN(_ int, from uint64, limit int, fn func(uint64) bool) error {
	if s.log.stopped {
		s.log.late++
	}
	if s.pulled {
		s.log.refills++
		s.log.refillAsk += limit
	} else {
		s.pulled = true
		s.log.first += limit
	}
	i := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= from })
	for n := 0; i < len(s.keys) && n < limit; i, n = i+1, n+1 {
		s.log.pulled++
		if !fn(s.keys[i]) {
			break
		}
	}
	return nil
}

// TestMergePullAccounting pins what a bounded merge costs in keys pulled,
// which are node visits in a real shard. Over random disjoint shard
// contents the stream is still the exact sorted prefix; the shards' first
// pulls ask for at most the n wanted plus a slack each (one shard: exactly
// n, in chunks, and nothing is ever pulled that is not emitted), a refill
// asks for its own share of what is left then, and no shard is pulled once
// emit has said stop. At ASCEND 64 over two shards — the benchmark's scan —
// a merge pulls at most 1.35 keys per key emitted on average, where pulling
// the whole request from both shards pulled 2.
func TestMergePullAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	run := func(shards, keys, n int, stopAfter int) (log *pullLog, got, want []uint64) {
		parts, all := disjointParts(rng, shards, keys)
		log = &pullLog{}
		asc := make([]sets.Ascender, shards)
		for i := range asc {
			asc[i] = &countingShard{keys: parts[i], log: log}
		}
		err := mergeAscend(make([]shardCursor, shards), n, func(i int, cur *shardCursor, max int) error {
			return cur.pull(asc[i], 0, max)
		}, func(k uint64) bool {
			got = append(got, k)
			log.stopped = len(got) == stopAfter
			return !log.stopped
		})
		if err != nil {
			t.Fatalf("%d shards, %d keys, n=%d: %v", shards, keys, n, err)
		}
		return log, got, all[:min(n, len(all))]
	}
	for _, shards := range []int{1, 2, 3, 5, 8} {
		for _, n := range []int{1, 7, 64, 200, 1000} {
			for round := 0; round < 20; round++ {
				log, got, want := run(shards, 1500, n, 0)
				if !sets.KeysEqual(got, want) {
					t.Fatalf("%d shards, n=%d: got %v, want %v", shards, n, got, want)
				}
				if firstMax := n + shards*(pullSlack+1); log.first > firstMax {
					t.Fatalf("%d shards, n=%d: first pulls asked for %d keys, want <= n + a slack and a rounding per shard = %d", shards, n, log.first, firstMax)
				}
				if log.pulled > log.first+log.refillAsk {
					t.Fatalf("%d shards, n=%d: %d keys pulled, %d + %d asked for", shards, n, log.pulled, log.first, log.refillAsk)
				}
				if shards == 1 && log.pulled != n {
					t.Fatalf("one shard, n=%d: %d keys pulled, want exactly n", n, log.pulled)
				}
			}
		}
		log, got, want := run(shards, 1500, 200, 90)
		if !sets.KeysEqual(got, want[:90]) || log.late != 0 {
			t.Fatalf("%d shards: merge stopped at 90 of 200: %d keys out, %d pull(s) after emit returned false", shards, len(got), log.late)
		}
	}
	pulled, emitted, refilled := 0, 0, 0
	const scans = 400
	for i := 0; i < scans; i++ {
		log, got, _ := run(2, 1500, 64, 0)
		pulled, emitted = pulled+log.pulled, emitted+len(got)
		if log.refills > 0 {
			refilled++
		}
	}
	t.Logf("ASCEND 64 on 2 shards: %.3f keys pulled per key emitted, %.1f%% of scans refilled",
		float64(pulled)/float64(emitted), 100*float64(refilled)/scans)
	if waste := float64(pulled) / float64(emitted); waste > 1.35 {
		t.Fatalf("ASCEND 64 on 2 shards pulls %.3f keys per key emitted, want <= 1.35", waste)
	}
}
