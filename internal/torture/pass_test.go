package torture

import (
	"fmt"
	"sync/atomic"
	"testing"

	"hohtx/internal/family"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
)

// passSet runs a run's batches through the sharded view's pass (the one a
// server's pipelined point requests take), except every third batch,
// which runs one op at a time through the point methods, so passes race
// point operations. Each op is one history entry.
type passSet struct {
	*serve.Sharded
	calls atomic.Uint64
}

func (p *passSet) Apply(tid int, ops []sets.Op) []sets.Result {
	if p.calls.Add(1)%3 == 0 {
		return sets.ApplyEach(p.Sharded, tid, ops)
	}
	return p.Pass(tid, ops)
}

// TestPassHistory: passes of 8 ops, beside point operations and scans, on
// 1 and 2 shards, under every windowed mode of the singly linked list (and
// the hash table over two of them), with small windows so passes are cut
// and their holds revoked often. Every op a pass ran must linearize on its
// own inside the pass's call — an op done in a window that aborted, or done
// twice after a lost hold, is a history with no linearization — and the
// books, the guard and the shape checks hold as in any run.
func TestPassHistory(t *testing.T) {
	// Four workers on a small key space contend enough to abort and revoke
	// passes' windows in every cell; a run takes milliseconds.
	threads, ops, keys := 4, 3000, uint64(64)
	if !testing.Short() {
		ops = 20000
	}
	modes := []string{"RR-FA", "RR-DM", "RR-SA", "RR-XO", "RR-SO", "RR-V", "REF", "TMHP", "TMHE", "TMVBR", ebrMode.String()}
	combo := uint64(0)
	for _, structure := range []string{family.Singly, family.Hash} {
		for _, variant := range modes {
			if structure == family.Hash && variant != "RR-V" && variant != "TMHP" {
				continue
			}
			for _, shards := range []int{1, 2} {
				combo++
				cfg := Config{
					Structure: structure, Variant: variant, Threads: threads, Ops: ops, Keys: keys,
					LookupPct: 20, Window: 2 + int(combo%3), Shards: shards, BatchOps: 8,
					Seed: 0x9a55 + combo, Guard: true,
				}.withDefaults()
				t.Run(fmt.Sprintf("%s/%s/s%d", structure, variant, shards), func(t *testing.T) {
					t.Parallel()
					inst, err := build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := inst.view.Shard(0).(sets.Passer); !ok {
						t.Fatalf("%s/%s has no pass", structure, variant)
					}
					// Ops run alone inside a pass: one history entry each.
					inst.set, inst.atomicBatch = &passSet{Sharded: inst.view}, false
					rep, err := runOn(cfg, inst)
					if err != nil {
						t.Fatal(err)
					}
					if rep.Inserts == 0 || rep.Removes == 0 {
						t.Fatalf("degenerate run: %d inserts, %d removes (repro: %s)", rep.Inserts, rep.Removes, cfg)
					}
				})
			}
		}
	}
}
