package hohtx_test

import (
	"math/rand"
	"testing"

	"hohtx"
	"hohtx/internal/core"
	"hohtx/internal/family"
	"hohtx/internal/reclaim"
)

// batchBuilders enumerates every public constructor for the batch
// conformance sweep.
func batchBuilders(threads int) map[string]func() hohtx.Set {
	cfg := hohtx.Config{Threads: threads}
	return map[string]func() hohtx.Set{
		"list":    func() hohtx.Set { return hohtx.NewListSet(cfg) },
		"dlist":   func() hohtx.Set { return hohtx.NewDoublyListSet(cfg) },
		"hash":    func() hohtx.Set { return hohtx.NewHashSet(cfg, 8) },
		"itree":   func() hohtx.Set { return hohtx.NewInternalTreeSet(cfg) },
		"etree":   func() hohtx.Set { return hohtx.NewExternalTreeSet(cfg) },
		"skip":    func() hohtx.Set { return hohtx.NewSkipListSet(cfg) },
		"sharded": func() hohtx.Set { return hohtx.NewShardedSet(2, func(int) hohtx.Set { return hohtx.NewListSet(cfg) }) },
	}
}

// TestApplyConformance checks Apply against a sequential model on every
// structure: results must match executing the ops one at a time, including
// same-key sequences inside one batch (insert→remove→insert, duplicate
// inserts) that exercise read-own-writes. Single operations run between
// the batches against the same model, so the windowed step and the uncut
// one are held to the same answers: through every public constructor, and
// for every family and every variant the family table defines at W = 1,
// where a point operation cuts a window at every node.
func TestApplyConformance(t *testing.T) {
	for name, build := range batchBuilders(2) {
		t.Run(name, func(t *testing.T) { conform(t, build()) })
	}
	cfg := reclaim.Config{Threads: 2, Window: core.Window{W: 1, NoScatter: true}}
	for _, f := range family.Names() {
		row, err := family.ByName(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range row.Variants() {
			t.Run("W1/"+f+"/"+v, func(t *testing.T) {
				s, err := row.Build(v, cfg)
				if err != nil {
					t.Fatal(err)
				}
				conform(t, s)
				for r := 0; r < s.Books(0).Traits.DrainRounds; r++ {
					s.Finish(0)
				}
				if err := s.Books(uint64(len(s.Snapshot()))).Check(true); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// conform drives s through a directed batch, then rounds of random batches
// and random single operations, checking each answer and the final
// snapshot against one model.
func conform(t *testing.T, s hohtx.Set) {
	t.Helper()
	s.Register(0)
	defer s.Finish(0)

	model := map[uint64]bool{}
	modelApply := func(op hohtx.Op) bool {
		switch op.Kind {
		case hohtx.OpInsert:
			if model[op.Key] {
				return false
			}
			model[op.Key] = true
			return true
		case hohtx.OpRemove:
			if !model[op.Key] {
				return false
			}
			delete(model, op.Key)
			return true
		default:
			return model[op.Key]
		}
	}
	single := func(op hohtx.Op) bool {
		switch op.Kind {
		case hohtx.OpInsert:
			return s.Insert(0, op.Key)
		case hohtx.OpRemove:
			return s.Remove(0, op.Key)
		default:
			return s.Lookup(0, op.Key)
		}
	}

	// Directed same-key batch: exercises the in-batch state machine.
	directed := []hohtx.Op{
		{Kind: hohtx.OpInsert, Key: 5},
		{Kind: hohtx.OpLookup, Key: 5},
		{Kind: hohtx.OpRemove, Key: 5},
		{Kind: hohtx.OpLookup, Key: 5},
		{Kind: hohtx.OpInsert, Key: 5},
		{Kind: hohtx.OpInsert, Key: 5},
		{Kind: hohtx.OpInsert, Key: 3},
		{Kind: hohtx.OpRemove, Key: 4},
		{Kind: hohtx.OpInsert, Key: 4},
		{Kind: hohtx.OpRemove, Key: 3},
	}
	for i, got := range s.Apply(0, directed) {
		if want := modelApply(directed[i]); got != want {
			t.Fatalf("directed op %d (%+v) = %v, want %v", i, directed[i], got, want)
		}
	}

	// Randomized batches of varying size over a small key range, each
	// followed by as many single operations.
	rng := rand.New(rand.NewSource(1))
	kinds := []hohtx.OpKind{hohtx.OpLookup, hohtx.OpInsert, hohtx.OpRemove}
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(24)
		ops := make([]hohtx.Op, n)
		for i := range ops {
			ops[i] = hohtx.Op{
				Kind: kinds[rng.Intn(3)],
				Key:  1 + uint64(rng.Intn(12)),
			}
		}
		for i, got := range s.Apply(0, ops) {
			if want := modelApply(ops[i]); got != want {
				t.Fatalf("round %d op %d (%+v) = %v, want %v", round, i, ops[i], got, want)
			}
		}
		for i := 0; i < n; i++ {
			op := hohtx.Op{Kind: kinds[rng.Intn(3)], Key: 1 + uint64(rng.Intn(12))}
			if got, want := single(op), modelApply(op); got != want {
				t.Fatalf("round %d single op %d (%+v) = %v, want %v", round, i, op, got, want)
			}
		}
	}

	// Empty batch is a no-op.
	if out := s.Apply(0, nil); len(out) != 0 {
		t.Fatalf("Apply(nil) returned %d results", len(out))
	}

	// Final state agrees with the model.
	got := s.Snapshot()
	if len(got) != len(model) {
		t.Fatalf("snapshot has %d keys, model %d", len(got), len(model))
	}
	for _, k := range got {
		if !model[k] {
			t.Fatalf("snapshot key %d not in model", k)
		}
	}
}

// TestApplyPreciseReclamation checks the headline property survives
// batching: a batch that removes keys frees their nodes by the time Apply
// returns.
func TestApplyPreciseReclamation(t *testing.T) {
	for _, name := range []string{"list", "dlist", "hash", "itree", "etree", "skip"} {
		build := batchBuilders(2)[name]
		t.Run(name, func(t *testing.T) {
			s := build()
			mem := s.(hohtx.MemoryReporter)
			s.Register(0)
			defer s.Finish(0)
			base := mem.LiveNodes()

			const n = 64
			ins := make([]hohtx.Op, n)
			del := make([]hohtx.Op, n)
			for i := 0; i < n; i++ {
				ins[i] = hohtx.Op{Kind: hohtx.OpInsert, Key: uint64(i + 1)}
				del[i] = hohtx.Op{Kind: hohtx.OpRemove, Key: uint64(i + 1)}
			}
			for i, r := range s.Apply(0, ins) {
				if !r {
					t.Fatalf("batch insert %d failed", i)
				}
			}
			for i, r := range s.Apply(0, del) {
				if !r {
					t.Fatalf("batch remove %d failed", i)
				}
			}
			if live := mem.LiveNodes(); live != base {
				t.Fatalf("live nodes after batch removes = %d, want baseline %d", live, base)
			}
		})
	}
}
