package torture

import (
	"flag"
	"fmt"
	"hohtx/internal/family"
	"strings"
	"testing"

	"hohtx/internal/arena"
)

var seedFlag = flag.Uint64("torture.seed", 0, "override the sweep's base seed")

// sweepParams sizes a run so the full matrix fits the CI budget in -short
// mode while still interleaving aggressively (small key space, several
// threads), and stretches out for nightly runs.
func sweepParams(short bool) (threads, ops int, keys uint64) {
	if short {
		return 4, 400, 64
	}
	return 8, 5000, 256
}

// TestTortureSweep drives every structure × variant × allocator-policy
// combination through the harness, per-op and in batches of 8. Guard mode is enabled wherever the
// variant supports it, so this is simultaneously a correctness sweep and a
// use-after-free sanitizer sweep. Failures print a repro command line.
func TestTortureSweep(t *testing.T) {
	threads, ops, keys := sweepParams(testing.Short())
	baseSeed := *seedFlag
	if baseSeed == 0 {
		baseSeed = 0x5eed
	}
	combo := uint64(0)
	for _, structure := range family.Names() {
		row, _ := family.ByName(structure)
		for _, variant := range row.Variants() {
			for _, policy := range []arena.Policy{arena.PolicyLocal, arena.PolicyShared} {
				combo++
				cfg := Config{
					Structure: structure,
					Variant:   variant,
					Policy:    policy,
					Threads:   threads + int(combo%3), // 4..6 (short)
					Ops:       ops,
					Keys:      keys,
					LookupPct: 10 + int(combo*7%40), // 10..49
					Window:    2 + int(combo%7),     // 2..7, or the served window below
					Shards:    1 + int(combo%2),     // alternate unsharded / 2-shard,
					BatchOps:  1 + 7*int(combo/2%2), // crossed with per-op / batches of 8
					Seed:      baseSeed + combo,
					Guard:     true, // ignored by variants without an arena guard
				}
				if combo%7 == 6 {
					cfg.Window = row.Window(cfg.Threads)
				}
				name := fmt.Sprintf("%s/%s/%s/s%d", structure, variant, policyName(policy), cfg.Shards)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					rep, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if rep.Inserts == 0 || rep.Removes == 0 {
						t.Fatalf("degenerate run: %d inserts, %d removes (repro: %s)",
							rep.Inserts, rep.Removes, cfg)
					}
				})
			}
		}
	}
}

func policyName(p arena.Policy) string {
	if p == arena.PolicyShared {
		return "shared"
	}
	return "local"
}

// TestTortureRejectsUnknown ensures the builder reports undefined
// combinations instead of silently testing the wrong thing.
func TestTortureRejectsUnknown(t *testing.T) {
	for _, cfg := range []Config{
		{Structure: "singly", Variant: "nope"},
		{Structure: "ring", Variant: "HTM"},
		{Structure: "doubly", Variant: "REF"},
		{Structure: "itree", Variant: "TMHP"},
		{Structure: "skip", Variant: "LFLeak"},
		{Structure: "singly", Variant: "Leak"}, // the comparator is spelled LFLeak everywhere
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run(%s/%s) accepted an undefined combination", cfg.Structure, cfg.Variant)
		}
	}
}

// TestTortureFailureDumpsFlightRecorder injects a validator failure into a
// built instance and checks the error carries both the repro line and the
// flight-recorder dump (lifecycle events + abort attribution).
func TestTortureFailureDumpsFlightRecorder(t *testing.T) {
	cfg := Config{Structure: family.Singly, Variant: "RR-FA", Threads: 2, Ops: 200, Keys: 32}
	cfg = cfg.withDefaults()
	inst, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inst.obs == nil {
		t.Fatal("TM-backed instance built without an observability domain")
	}
	inst.validate = func() error { return fmt.Errorf("injected failure") }
	_, err = runOn(cfg, inst)
	if err == nil {
		t.Fatal("injected validator failure did not fail the run")
	}
	msg := err.Error()
	for _, want := range []string{
		"repro: " + cfg.String(),
		"injected failure",
		"flight recorder (singly/RR-FA",
		"who-aborted-whom:",
		"begin", // at least one lifecycle event made it into the dump
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("failure message missing %q:\n%s", want, msg)
		}
	}
}

// TestTortureBatchOps drives the op mix through Set.Apply, unsharded and
// behind the per-shard facade, and on the lock-free baseline whose Apply is
// per-op: the history records each batch at the scope it is atomic in, and
// the checker must accept every one of them.
func TestTortureBatchOps(t *testing.T) {
	for _, tc := range []struct {
		variant string
		shards  int
	}{
		{"RR-V", 1},
		{"TMHP", 2},
		{"LFHP", 1},
	} {
		t.Run(fmt.Sprintf("%s/s%d", tc.variant, tc.shards), func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Structure: family.Singly, Variant: tc.variant,
				Threads: 4, Ops: 600, Keys: 64, Window: 4,
				Shards: tc.shards, BatchOps: 8, Seed: 0xba7c4,
			}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Inserts == 0 || rep.Removes == 0 {
				t.Fatalf("degenerate batch run: %d inserts, %d removes (repro: %s)",
					rep.Inserts, rep.Removes, cfg)
			}
		})
	}
}

// TestTortureScanOracle checks that every worker scans once per lease batch
// on every Ascender shape — singly/skip, precise, whole-operation and
// deferred, unsharded and behind the merged sharded cursor — and that the
// checker accepts those scans, and that no scan runs where scanning is
// undefined (trees).
func TestTortureScanOracle(t *testing.T) {
	for _, tc := range []struct {
		structure, variant string
		shards             int
		wantScans          bool
	}{
		{family.Singly, "RR-V", 1, true},
		{family.Singly, "HTM", 1, true},
		{family.Singly, "RR-FA", 3, true}, // merged cross-shard cursor
		{family.Skip, "RR-V", 2, true},
		{family.Singly, "TMHP", 1, true},
		{family.ITree, "HTM", 1, false}, // no Ascender at all
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s/%s/s%d", tc.structure, tc.variant, tc.shards), func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Structure: tc.structure, Variant: tc.variant,
				Threads: 4, Ops: 800, Keys: 64, Window: 3,
				Shards: tc.shards, Seed: 0x5ca9, Guard: true,
			}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// 800 ops a worker is 13 lease batches of 64.
			if want := uint64(4 * 13); tc.wantScans && rep.ScanChecks != want {
				t.Fatalf("%d scans checked on an Ascender variant, want %d (repro: %s)", rep.ScanChecks, want, cfg)
			}
			if !tc.wantScans && rep.ScanChecks != 0 {
				t.Fatalf("%d scans checked on a variant without scan support (repro: %s)",
					rep.ScanChecks, cfg)
			}
		})
	}
}

// TestTortureBatchReproString pins the -batch suffix cmd/torture parses back.
func TestTortureBatchReproString(t *testing.T) {
	cfg := Config{
		Structure: "singly", Variant: "RR-V",
		Threads: 4, Ops: 600, Keys: 64, LookupPct: 20, Window: 4,
		Seed: 7, BatchOps: 8,
	}
	want := "torture -structure=singly -variant=RR-V -policy=0 -threads=4 -ops=600 -keys=64 -lookup=20 -window=4 -seed=7 -batch=8"
	if got := cfg.String(); got != want {
		t.Fatalf("batch repro string drifted:\n got %s\nwant %s", got, want)
	}
}

// TestTortureReproString pins the repro line format the failure messages
// and cmd/torture rely on.
func TestTortureReproString(t *testing.T) {
	cfg := Config{
		Structure: "etree", Variant: "TMHP", Policy: arena.PolicyShared,
		Threads: 6, Ops: 1000, Keys: 64, LookupPct: 30, Window: 5,
		Seed: 42, Guard: true,
	}
	want := "torture -structure=etree -variant=TMHP -policy=1 -threads=6 -ops=1000 -keys=64 -lookup=30 -window=5 -seed=42 -guard"
	if got := cfg.String(); got != want {
		t.Fatalf("repro string drifted:\n got %s\nwant %s", got, want)
	}
	cfg.Shards = 4
	want = "torture -structure=etree -variant=TMHP -policy=1 -threads=6 -ops=1000 -keys=64 -lookup=30 -window=5 -seed=42 -shards=4 -guard"
	if got := cfg.String(); got != want {
		t.Fatalf("sharded repro string drifted:\n got %s\nwant %s", got, want)
	}
}

// TestTortureSharded exercises the sharded build path at a shard count
// above the sweep's: a 4-shard precise variant and a 4-shard hazard
// variant, checking the per-shard memory books engage (the validator
// descends into every shard) and the per-key oracle holds across the
// routing facade.
func TestTortureSharded(t *testing.T) {
	for _, variant := range []string{"RR-V", "TMHP"} {
		t.Run(variant, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Structure: family.Singly, Variant: variant,
				Threads: 4, Ops: 600, Keys: 96, Window: 4,
				Shards: 4, Seed: 0xbeef, Guard: true,
			}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Inserts == 0 || rep.Removes == 0 {
				t.Fatalf("degenerate run: %d inserts, %d removes (repro: %s)",
					rep.Inserts, rep.Removes, cfg)
			}
			if rep.Books.Deferred != 0 {
				t.Fatalf("%d deferred nodes after full drain (repro: %s)", rep.Books.Deferred, cfg)
			}
		})
	}
}

// TestTortureShardedBuild checks the combined instance's metadata: one
// obs domain per shard (each under its own name, so a live registry or a
// failure dump shows all of them), summed sentinel counts, and a clean
// run through runOn with the per-shard verdict engaged.
func TestTortureShardedBuild(t *testing.T) {
	single, err := build(Config{Structure: family.Singly, Variant: "RR-V"}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Structure: family.Singly, Variant: "RR-V",
		Threads: 2, Ops: 200, Keys: 64, Shards: 3,
	}
	cfg = cfg.withDefaults()
	inst, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(inst.domains()); got != 3 {
		t.Fatalf("sharded instance carries %d obs domains, want 3", got)
	}
	one, _ := single.view.Books(0, false)
	if all, err := inst.view.Books(0, false); err != nil || all.Sentinels != 3*one.Sentinels {
		t.Fatalf("sharded books %+v (%v): want 3 × single's %d sentinels", all, err, one.Sentinels)
	}
	if got := inst.set.Name(); got != "RR-V×3" {
		t.Fatalf("sharded set name %q, want RR-V×3", got)
	}
	if got := inst.view.ShardCount(); got != 3 {
		t.Fatalf("the verdict's view has %d shards, want 3", got)
	}
	if _, err := runOn(cfg, inst); err != nil {
		t.Fatalf("clean sharded run failed: %v", err)
	}
}

// TestSkipTowerBooks runs one guarded cell on the skiplist per variant it
// takes — every registered scheme, the test-registered TMTOY and TMEBR
// included — over a key range wide enough that some resident keys are
// taller than a node's own levels. The verdict then reads the family's
// invariant after the drained books balance, so the tower arena must hold
// exactly the head's tower and one per tall resident key
// (skiplist.ValidateLevels).
func TestSkipTowerBooks(t *testing.T) {
	row, err := family.ByName(family.Skip)
	if err != nil {
		t.Fatal(err)
	}
	for i, variant := range row.Variants() {
		t.Run(variant, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Structure: family.Skip, Variant: variant, Threads: 4, Ops: 600, Keys: 512,
				LookupPct: 10, Window: 2 + i%5, BatchOps: 1 + 7*(i%2), Seed: 0x7e4 + uint64(i), Guard: true,
			}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Removes == 0 || rep.Size < 64 {
				t.Fatalf("degenerate run: %d removes, %d keys left (repro: %s)", rep.Removes, rep.Size, cfg)
			}
		})
	}
}
