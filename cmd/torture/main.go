// Command torture runs the adversarial reclamation stress harness from the
// command line. It has two modes:
//
//	torture -structure=singly -variant=TMHP -seed=42 ...
//	    run one configuration (the repro mode: paste a failing repro line
//	    printed by the harness or CI to replay it)
//
//	torture -sweep -rounds=20 ...
//	    run every structure × variant × policy combination with -rounds
//	    distinct seeds each; failing repro lines are appended to the
//	    -failures file and the process exits nonzero
//
// See internal/torture for the invariants checked.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hohtx/internal/arena"
	"hohtx/internal/family"
	"hohtx/internal/obs"
	"hohtx/internal/torture"
)

func main() {
	var (
		structure = flag.String("structure", family.Singly, "structure to torture ("+strings.Join(family.Names(), "|")+")")
		variant   = flag.String("variant", "RR-V", "mechanism variant the structure takes (an undefined one lists them)")
		policy    = flag.Int("policy", 0, "arena free-list policy (0=local magazines, 1=shared)")
		threads   = flag.Int("threads", 4, "worker thread count")
		ops       = flag.Int("ops", 2000, "operations per worker")
		keys      = flag.Uint64("keys", 128, "key-space size")
		lookup    = flag.Int("lookup", 20, "lookup percentage of the op mix")
		window    = flag.Int("window", 4, "hand-over-hand window size")
		seed      = flag.Uint64("seed", 1, "schedule seed")
		shards    = flag.Int("shards", 1, "partition keys across this many independent instances")
		batch     = flag.Int("batch", 1, "drive worker ops through Set.Apply in batches of this size (1 = per-op calls)")
		guard     = flag.Bool("guard", false, "enable the arena use-after-free sanitizer")
		sweep     = flag.Bool("sweep", false, "run the full structure × variant × policy matrix")
		rounds    = flag.Int("rounds", 1, "seeds per combination in sweep mode")
		failures  = flag.String("failures", "torture-failures.txt", "file to append failing repro lines to (sweep mode)")
		obsAddr   = flag.String("obs", "", "serve live metrics (/metrics, /snapshot, /flight, pprof) on this address, e.g. :8371")
	)
	flag.Parse()

	var reg *obs.Registry
	if *obsAddr != "" {
		reg = obs.NewRegistry()
		addr, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "torture: obs endpoint:", err)
			os.Exit(1)
		}
		fmt.Printf("obs endpoint on http://%s (/metrics, /snapshot, /flight, /debug/pprof)\n", addr)
	}

	if !*sweep {
		cfg := torture.Config{
			Structure: *structure, Variant: *variant, Policy: arena.Policy(*policy),
			Threads: *threads, Ops: *ops, Keys: *keys, LookupPct: *lookup,
			Window: *window, Seed: *seed, Shards: *shards, BatchOps: *batch,
			Guard: *guard, Registry: reg,
		}
		rep, err := torture.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("ok: %s\n  size=%d inserts=%d removes=%d live=%d deferred=%d leftover=%d avg_delay_ops=%.1f poisonReads=%d violations=%d scans=%d\n",
			cfg, rep.Size, rep.Inserts, rep.Removes, rep.Books.Live, rep.Books.Deferred,
			rep.Books.Leftover, rep.AvgDelayOps, rep.PoisonReads, rep.Violations, rep.ScanChecks)
		return
	}

	var failed []string
	combos, runs := 0, 0
	for _, st := range family.Names() {
		row, _ := family.ByName(st)
		for _, v := range row.Variants() {
			for _, pol := range []arena.Policy{arena.PolicyLocal, arena.PolicyShared} {
				combos++
				comboFailed := 0
				var last torture.Report
				for r := 0; r < *rounds; r++ {
					runs++
					cfg := torture.Config{
						Structure: st, Variant: v, Policy: pol,
						Threads: *threads + r%4, Ops: *ops, Keys: *keys,
						LookupPct: 10 + (combos*7+r*13)%40,
						Window:    2 + (combos+r)%7,       // 2..7, or the served window below
						Shards:    1 + ((combos+r)%2)*2,   // alternate 1 and 3 shards
						BatchOps:  1 + ((combos+r+1)%2)*7, // alternate per-op and batches of 8
						Seed:      *seed + uint64(runs),
						Guard:     true,
						Registry:  reg,
					}
					if (combos+r)%7 == 6 {
						cfg.Window = row.Window(cfg.Threads)
					}
					rep, err := torture.Run(cfg)
					if err != nil {
						fmt.Fprintln(os.Stderr, err)
						failed = append(failed, cfg.String())
						comboFailed++
					}
					last = rep
				}
				polName := "local"
				if pol == arena.PolicyShared {
					polName = "shared"
				}
				fmt.Printf("%-7s %-7s %-6s rounds=%d failed=%d size=%d leftover=%d avg_delay_ops=%.1f\n",
					st, v, polName, *rounds, comboFailed, last.Size, last.Books.Leftover, last.AvgDelayOps)
			}
		}
	}
	fmt.Printf("sweep: %d runs over %d combinations, %d failed\n", runs, combos, len(failed))
	if len(failed) > 0 {
		f, err := os.OpenFile(*failures, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err == nil {
			for _, line := range failed {
				fmt.Fprintln(f, line)
			}
			f.Close()
			fmt.Printf("repro lines appended to %s\n", *failures)
		}
		os.Exit(1)
	}
}
