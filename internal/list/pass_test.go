package list

import (
	"fmt"
	"math/rand"
	"testing"

	"hohtx/internal/core"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// passers returns one singly linked list per mode under test and the hash
// table over RR-V, each a sets.Passer.
func passers(threads, w int) []interface {
	sets.Set
	sets.Passer
} {
	out := []interface {
		sets.Set
		sets.Passer
	}{NewHashTable(Config{Mode: reclaim.ModeRR, RRKind: core.KindV, Threads: threads, Window: core.Window{W: w}}, 4)}
	for _, l := range variants(threads, w) {
		out = append(out, l)
	}
	return out
}

// TestPassMatchesOneAtATime: a pass answers what its ops answer run one at
// a time in arrival order, and leaves the same keys, in every mode — the
// whole-op ones (HTM, ER) included, which run each op alone. Windows of 3
// cut every pass many times; rounds carry repeated keys, so ops on one key
// keep their order inside a pass.
func TestPassMatchesOneAtATime(t *testing.T) {
	for _, s := range passers(1, 3) {
		t.Run(s.Name(), func(t *testing.T) {
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

// TestPassWindowsFit: under the modelled HTM capacity (448 cells) and the
// lists' tuned window (64), no pass window needs the serial fallback —
// not a 4 096-op pass of inserts, whose windows end on their write sets,
// nor 4 096 lookups of one key, which pass no node and end on the step
// each op costs, nor 8-op passes over a 4 096-key list, whose windows
// mostly walk — while the same ops through Apply's one uncut transaction
// do.
func TestPassWindowsFit(t *testing.T) {
	const keys, maxBatch = 4096, 4096
	inserts := make([]sets.Op, maxBatch)
	for i, k := range rand.New(rand.NewSource(1)).Perm(keys) {
		inserts[i] = sets.Op{Kind: sets.OpInsert, Key: uint64(k) + 1}
	}
	same := make([]sets.Op, maxBatch)
	for i := range same {
		same[i] = sets.Op{Kind: sets.OpLookup, Key: keys}
	}
	bursts := make([][]sets.Op, 50)
	rng := rand.New(rand.NewSource(2))
	for i := range bursts {
		bursts[i] = make([]sets.Op, 8)
		for j := range bursts[i] {
			bursts[i][j] = sets.Op{Kind: sets.OpKind(rng.Intn(3)), Key: 1 + uint64(rng.Intn(2*keys))}
		}
	}
	modes := []Config{
		{Mode: reclaim.ModeRR, RRKind: core.KindV},
		{Mode: reclaim.ModeRR, RRKind: core.KindXO},
		{Mode: reclaim.ModeTMHP},
		{Mode: ModeREF},
	}
	for _, cfg := range modes {
		cfg.Threads, cfg.Window, cfg.Profile = 1, core.Window{W: 64}, stm.HTMProfile(2)
		serial := func(batch bool, prefill bool, run [][]sets.Op) (stm.Stats, int) {
			l := New(cfg)
			l.Register(0)
			if prefill {
				fill := make([]sets.Op, keys)
				for k := range fill {
					fill[k] = sets.Op{Kind: sets.OpInsert, Key: 2 * uint64(k+1)}
				}
				l.Pass(0, fill)
			}
			before := l.TMStats()
			n := 0
			for _, ops := range run {
				if batch {
					l.Apply(0, ops)
				} else {
					l.Pass(0, ops)
				}
				n += len(ops)
			}
			after := l.TMStats()
			after.Commits -= before.Commits
			after.SerialCommits -= before.SerialCommits
			after.Aborts[stm.CauseCapacity] -= before.Aborts[stm.CauseCapacity]
			return after, n
		}
		for _, shape := range []struct {
			name    string
			prefill bool
			run     [][]sets.Op
		}{
			{fmt.Sprintf("inserts=%d", maxBatch), false, [][]sets.Op{inserts}},
			{fmt.Sprintf("keys=4096/lookups=%d", maxBatch), true, [][]sets.Op{same}},
			{"keys=4096/burst=8", true, bursts},
		} {
			t.Run(New(cfg).Name()+"/"+shape.name, func(t *testing.T) {
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
