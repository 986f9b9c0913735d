// Command rrstress is a long-running randomized invariant checker for
// every data structure variant in this repository. It repeatedly runs
// mixed concurrent workloads, then stops the world and verifies:
//
//   - op/state balance: |set| == successful inserts − successful removes
//   - structural invariants (sortedness; BST ordering; doubly links;
//     external-tree routing)
//   - memory books: live nodes == set size + sentinels + deferred nodes
//   - precision: reservation-based variants never defer a single free
//
// Any violation aborts with a nonzero exit. Use it to soak-test changes:
//
//	rrstress -rounds 50 -threads 8 -ops 5000
//	rrstress -variant RR-XO -family itree -rounds 0   # run forever
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hohtx/internal/bench"
	"hohtx/internal/obs"
	"hohtx/internal/sets"
)

var (
	rounds  = flag.Int("rounds", 20, "verification rounds (0 = forever)")
	threads = flag.Int("threads", 8, "concurrent workers")
	ops     = flag.Int("ops", 4000, "operations per worker per round")
	keys    = flag.Uint64("keys", 512, "key-range size")
	family  = flag.String("family", "all", "structure family: singly, doubly, itree, etree, or all")
	variant = flag.String("variant", "all", "variant name (e.g. RR-XO) or all")
	seed    = flag.Int64("seed", 0, "base seed (0 = time-derived)")
	obsAddr = flag.String("obs", "", "serve live metrics (/metrics, /snapshot, pprof) on this address, e.g. :8372")
)

// registry is non-nil when -obs is set; each round's structure registers
// its observability domain for the duration of the round.
var registry *obs.Registry

// cell is one (family, variant) combination under stress.
type cell struct {
	fam  bench.Family
	name string
}

func cells() []cell {
	fams := map[bench.Family][]string{
		bench.FamilySingly:       append(bench.RRNames(), "HTM", "TMHP", "REF", "ER", "LFLeak", "LFHP"),
		bench.FamilyDoubly:       append(bench.RRNames(), "HTM", "TMHP"),
		bench.FamilyInternalTree: append(bench.RRNames(), "HTM"),
		bench.FamilyExternalTree: append(bench.RRNames(), "HTM", "TMHP", "LFLeak"),
		bench.FamilySkipList:     append(bench.RRNames(), "HTM"),
	}
	var out []cell
	for fam, names := range fams {
		if *family != "all" && string(fam) != *family {
			continue
		}
		for _, n := range names {
			if *variant != "all" && !strings.EqualFold(n, *variant) {
				continue
			}
			out = append(out, cell{fam: fam, name: n})
		}
	}
	return out
}

// stressOnce runs one round against a fresh structure and verifies it.
func stressOnce(c cell, roundSeed int64) error {
	spec := bench.VariantSpec{Name: c.name, Window: 2 + int(roundSeed%7), Observe: registry != nil}
	s, err := bench.Build(c.fam, spec, *threads)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	if registry != nil {
		if or, ok := s.(sets.ObsReporter); ok {
			if d := or.ObsDomain(); d != nil {
				registry.Register(d)
				defer registry.Unregister(d)
			}
		}
	}
	var succIns, succRem atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < *threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s.Register(tid)
			rng := rand.New(rand.NewSource(roundSeed + int64(tid)*7919))
			for i := 0; i < *ops; i++ {
				key := uint64(rng.Int63())%*keys + 1
				switch rng.Intn(3) {
				case 0:
					if s.Insert(tid, key) {
						succIns.Add(1)
					}
				case 1:
					if s.Remove(tid, key) {
						succRem.Add(1)
					}
				default:
					s.Lookup(tid, key)
				}
			}
			s.Finish(tid)
		}(w)
	}
	wg.Wait()

	snap := s.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1] >= snap[i] {
			return fmt.Errorf("snapshot not strictly sorted at %d", i)
		}
	}
	if int64(len(snap)) != succIns.Load()-succRem.Load() {
		return fmt.Errorf("balance: |set|=%d inserts-removes=%d",
			len(snap), succIns.Load()-succRem.Load())
	}
	if v, ok := s.(interface{ ValidateLinks() bool }); ok && !v.ValidateLinks() {
		return fmt.Errorf("doubly links broken")
	}
	if v, ok := s.(interface{ ValidateBST() bool }); ok && !v.ValidateBST() {
		return fmt.Errorf("BST ordering broken")
	}
	if v, ok := s.(interface{ ValidateRouting() bool }); ok && !v.ValidateRouting() {
		return fmt.Errorf("external routing broken")
	}
	if v, ok := s.(interface{ ValidateLevels() bool }); ok && !v.ValidateLevels() {
		return fmt.Errorf("skiplist levels broken")
	}
	if m, ok := s.(sets.MemoryReporter); ok {
		perKey, sentinels := uint64(1), uint64(1)
		if c.fam == bench.FamilyExternalTree {
			perKey, sentinels = 2, 5
		}
		// Precision check: the reservation variants must never defer.
		if strings.HasPrefix(c.name, "RR-") || c.name == "HTM" {
			if d := m.DeferredNodes(); d != 0 {
				return fmt.Errorf("precise variant deferred %d nodes", d)
			}
		}
		want := uint64(len(snap))*perKey + sentinels + m.DeferredNodes()
		if live := m.LiveNodes(); live != want {
			return fmt.Errorf("memory books: live=%d want=%d (|set|=%d deferred=%d)",
				live, want, len(snap), m.DeferredNodes())
		}
	}
	return nil
}

func main() {
	flag.Parse()
	if *obsAddr != "" {
		registry = obs.NewRegistry()
		addr, err := obs.Serve(*obsAddr, registry)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rrstress: obs endpoint:", err)
			os.Exit(1)
		}
		fmt.Printf("obs endpoint on http://%s (/metrics, /snapshot, /flight, /debug/pprof)\n", addr)
	}
	base := *seed
	if base == 0 {
		base = time.Now().UnixNano()
	}
	all := cells()
	if len(all) == 0 {
		fmt.Fprintln(os.Stderr, "rrstress: no matching family/variant")
		os.Exit(2)
	}
	fmt.Printf("rrstress: %d variant cells, %d threads, %d ops/worker, seed %d\n",
		len(all), *threads, *ops, base)
	start := time.Now()
	for round := 0; *rounds == 0 || round < *rounds; round++ {
		for _, c := range all {
			if err := stressOnce(c, base+int64(round)*104729); err != nil {
				fmt.Fprintf(os.Stderr, "rrstress: FAIL %s/%s round %d: %v\n",
					c.fam, c.name, round, err)
				os.Exit(1)
			}
		}
		fmt.Printf("round %3d ok (%d cells, %s elapsed)\n", round, len(all),
			time.Since(start).Truncate(time.Second))
	}
	fmt.Println("rrstress: PASS")
}
