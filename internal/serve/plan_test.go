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

func (s *chunked) refill(i int, cur *shardCursor) error {
	s.refills++
	if s.refills == s.failAt {
		return errRefill
	}
	n := min(s.chunk, len(s.parts[i]))
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
			err := mergeAscend(make([]shardCursor, shards), src.refill, func(k uint64) bool {
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
	err := mergeAscend(make([]shardCursor, 3), src.refill, func(k uint64) bool {
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
	err = mergeAscend(make([]shardCursor, 3), src.refill, func(uint64) bool {
		if src.refills >= src.failAt {
			emittedAfter++
		}
		return true
	})
	if !errors.Is(err, errRefill) || emittedAfter != 0 {
		t.Fatalf("failed refill: err %v, %d key(s) emitted after it", err, emittedAfter)
	}
}
