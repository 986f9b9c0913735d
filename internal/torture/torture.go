package torture

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hohtx/internal/arena"
	"hohtx/internal/obs"
	"hohtx/internal/reclaim"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
)

// Config fully determines one torture run; String() is the repro line.
type Config struct {
	Structure string       // a family table row's name (family.Names)
	Variant   string       // a variant the row takes (family.Row.Variants)
	Policy    arena.Policy // allocator free-list policy
	Threads   int          // concurrent worker count (default 4)
	Ops       int          // operations per worker (default 2000)
	Keys      uint64       // key-space size; keys are 1..Keys (default 128)
	LookupPct int          // % of ops that are lookups (default 20)
	Window    int          // hand-over-hand window size (default 4)
	Seed      uint64       // schedule seed; 0 means 1
	Guard     bool         // enable the arena use-after-free sanitizer
	// BatchOps, when > 1, drives each worker's op stream through Set.Apply
	// in groups of this many ops instead of one call per op — the exact
	// oracle then also pins Apply's per-op results. On transactional
	// structures the run additionally keeps a key pair beyond the oracle
	// range that one goroutine batch-inserts/batch-removes together while
	// another batch-looks-up both, asserting all-or-nothing visibility per
	// batch (both present or neither, never one).
	BatchOps int
	// Shards partitions the key space across this many fully independent
	// instances behind serve.Sharded (default 1 = unsharded). Every
	// invariant is then checked twice: in aggregate on the facade, and per
	// shard (each shard keeps its own exact memory book).
	Shards int
	// Registry, when non-nil, carries the run's observability domain for
	// the duration of the run so a live /metrics endpoint (cmd/torture's
	// -obs flag) can watch a long sweep. Not part of the repro string.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.Ops <= 0 {
		c.Ops = 2000
	}
	if c.Keys == 0 {
		c.Keys = 128
	}
	if c.LookupPct == 0 {
		c.LookupPct = 20
	}
	if c.Window == 0 {
		c.Window = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// String renders the run as a reproducible `go run ./cmd/torture` command
// line; it is embedded in every failure.
func (c Config) String() string {
	g := ""
	if c.Guard {
		g = " -guard"
	}
	sh := ""
	if c.Shards > 1 {
		sh = fmt.Sprintf(" -shards=%d", c.Shards)
	}
	b := ""
	if c.BatchOps > 1 {
		b = fmt.Sprintf(" -batch=%d", c.BatchOps)
	}
	return fmt.Sprintf(
		"torture -structure=%s -variant=%s -policy=%d -threads=%d -ops=%d -keys=%d -lookup=%d -window=%d -seed=%d%s%s%s",
		c.Structure, c.Variant, c.Policy, c.Threads, c.Ops, c.Keys, c.LookupPct, c.Window, c.Seed, sh, b, g)
}

// Report summarizes a completed run.
type Report struct {
	Size        int           // final set cardinality
	Inserts     uint64        // successful inserts (workers, not prefill)
	Removes     uint64        // successful removes
	Books       reclaim.Books // the drained books the verdict read, summed over shards
	AvgDelayOps float64       // mean retire→free distance in op stamps (deferred schemes)
	PoisonReads uint64        // benign doomed-reader poison observations (guard)
	Violations  uint64        // committed use-after-free reads (guard; must be 0)
	PairChecks  uint64        // batch-atomicity observer transactions (BatchOps runs)
	ScanChecks  uint64        // concurrent scan-oracle iterations (Ascender variants)
}

// leaseBatch is how many operations a worker runs under one slot lease
// before releasing it — short enough that streams migrate across slots
// many times per run, long enough that the pool is not the bottleneck.
const leaseBatch = 64

// splitmix64 is the per-worker deterministic RNG step.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// workerTally is one worker's contribution to the exact oracle.
type workerTally struct {
	ins []int64 // successful inserts per key
	rem []int64 // successful removes per key
	err error   // recovered panic, if any
}

// Run executes one torture configuration and checks every invariant.
// The returned error (if any) embeds cfg.String() for reproduction.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	inst, err := build(cfg)
	if err != nil {
		return Report{}, err
	}
	return runOn(cfg, inst)
}

// A cell that has not finished by its deadline is a failure with evidence,
// not a CI timeout. The deadline is watchdogPerOp for each of the run's
// Ops × Threads operations (at least watchdogMinOps of them): a clean cell
// spends microseconds on one, the race detector on a busy host tens of them.
const (
	watchdogPerOp  = 2 * time.Millisecond
	watchdogMinOps = 2000
)

// runOn drives a pre-built instance (split out so tests can inspect the
// structure after the run) under the watchdog.
func runOn(cfg Config, inst *instance) (Report, error) {
	type outcome struct {
		rep Report
		err error
	}
	done := make(chan outcome, 1)
	leases := make([]atomic.Pointer[string], cfg.Threads)
	go func() {
		rep, err := drive(cfg, inst, leases)
		done <- outcome{rep, err}
	}()
	limit := time.Duration(max(cfg.Ops*cfg.Threads, watchdogMinOps)) * watchdogPerOp
	select {
	case o := <-done:
		return o.rep, o.err
	case <-time.After(limit):
	}
	// The run's goroutines are still out there, so everything below is read
	// under them: why each shard's transactions abort, who holds which
	// worker id, and where every goroutine is.
	evidence := []string{fmt.Sprintf("watchdog: not finished after %v", limit)}
	for i := 0; i < inst.view.ShardCount(); i++ {
		if r, ok := inst.view.Shard(i).(sets.TMStatsReporter); ok {
			evidence = append(evidence, fmt.Sprintf("shard %d: %v", i, r.TMStats()))
		}
	}
	for tid := range leases {
		who := "free"
		if p := leases[tid].Load(); p != nil {
			who = "leased by " + *p
		}
		evidence = append(evidence, fmt.Sprintf("tid %d: %s", tid, who))
	}
	buf := make([]byte, 1<<20)
	evidence = append(evidence, "goroutines:\n"+string(buf[:runtime.Stack(buf, true)]))
	return Report{}, runError(cfg, inst, evidence)
}

// drive is one run: the phases, then the checks. leases[tid] names the
// holder of worker id tid while it is leased, for the watchdog's report.
func drive(cfg Config, inst *instance, leases []atomic.Pointer[string]) (Report, error) {
	var rep Report
	s := inst.set
	if cfg.Registry != nil {
		for _, d := range inst.domains() {
			cfg.Registry.Register(d)
			defer cfg.Registry.Unregister(d)
		}
	}

	// All worker-id traffic goes through a lease pool: it registers every
	// slot up front, and each logical worker leases slots in short batches,
	// so one op stream migrates across worker ids mid-run. That is a
	// torture dimension the fixed-tid harness could not reach — per-slot
	// state (reservations, hazard slots, allocator magazines) must not
	// leak between the streams that share a slot over time.
	pool := serve.NewPool(s, serve.PoolConfig{Slots: cfg.Threads, Obs: inst.obs})
	lease := func(do func(context.Context, func(int)) error, who string, fn func(tid int)) {
		_ = do(context.Background(), func(tid int) {
			leases[tid].Store(&who)
			defer leases[tid].Store(nil)
			fn(tid)
		})
	}

	// Span arming: the serving layer threads an obs.Span through every
	// stamping site (stm attempt loop, serial fallback, reclamation
	// scans, abort attribution). The harness re-arms one span per worker around
	// every lease batch so those exact paths run under the race detector
	// with tracing live, and so span lifecycle bugs become panics: Reset
	// panics on a span the previous batch leaked, Finish on a double
	// finish. Lock-free baselines carry no domain; their workers still
	// cycle the spans, pinning the lifecycle discipline itself.
	armSpan := inst.view.ArmSpan

	// Prefill about half the key space single-threaded so removals have
	// something to chew on from the first operation.
	presence := make([]int64, cfg.Keys+1)
	seed := cfg.Seed
	lease(pool.Do, "prefill", func(tid int) {
		for i := uint64(0); i < cfg.Keys/2; i++ {
			k := 1 + splitmix64(&seed)%cfg.Keys
			if s.Insert(tid, k) {
				presence[k] = 1
			}
		}
	})

	// Scan oracle: while the workers churn, a scanner drives the Ascender
	// reservation cursor end to end and checks the weak-consistency
	// contract the wire ASCEND verb inherits. Fixture keys parked above
	// both the oracle's key range and the pair pin's stay present for the
	// whole churn phase, so every scan must deliver each fixture at or
	// beyond its start key — and strictly ascending delivery makes that
	// exactly-once. Everything else a scan observes must be an oracle key
	// (in-flight churn is fine) or an in-flight pair-pin key; any other
	// key is a phantom.
	var scanChecks atomic.Uint64
	var scanMu sync.Mutex
	var scanFails []string
	stopScan := make(chan struct{})
	var scanWg sync.WaitGroup
	var fixtures []uint64
	if inst.canScan {
		a := s.(sets.Ascender)
		fixBase := cfg.Keys + 64
		fixSet := make(map[uint64]bool, 8)
		for i := uint64(0); i < 8; i++ {
			k := fixBase + i*5
			fixtures = append(fixtures, k)
			fixSet[k] = true
		}
		lease(pool.Do, "scan fixtures", func(tid int) {
			for _, k := range fixtures {
				if !s.Insert(tid, k) {
					scanFails = append(scanFails, fmt.Sprintf("scan oracle: fixture %d insert failed", k))
				}
			}
		})
		scanFail := func(format string, args ...any) {
			scanMu.Lock()
			if len(scanFails) < 8 { // a broken cursor would flood the report
				scanFails = append(scanFails, fmt.Sprintf(format, args...))
			}
			scanMu.Unlock()
		}
		scanWg.Add(1)
		go func() {
			defer scanWg.Done()
			h := pool.Handle()
			sp := new(obs.Span) // pooled: one span object, re-armed per scan
			rng := cfg.Seed ^ 0x5ca9
			// Check-then-poll, as the pair observer below: the workers can
			// finish before this goroutine is first scheduled, and the run
			// must still record at least one scan.
			for round := 0; ; round++ {
				var lo uint64
				switch round % 3 {
				case 0:
					lo = 0 // full scan
				case 1:
					lo = 1 + splitmix64(&rng)%cfg.Keys // mid-range start
				default:
					lo = fixBase // fixture suffix only
				}
				last, seenFix := uint64(0), 0
				lease(h.Do, "scanner", func(tid int) {
					sp.Reset("ASCEND", obs.Now())
					armSpan(tid, sp)
					defer func() { armSpan(tid, nil); sp.Finish(obs.Now()) }()
					err := a.Ascend(tid, lo, func(k uint64) bool {
						if k <= last && last != 0 {
							scanFail("scan oracle: round %d from %d: %d after %d (order/duplicate)", round, lo, k, last)
							return false
						}
						last = k
						switch {
						case k <= cfg.Keys: // oracle key, churned freely
						case fixSet[k]:
							seenFix++
						case k < fixBase: // in-flight pair-pin key
						default:
							scanFail("scan oracle: round %d: phantom key %d", round, k)
							return false
						}
						return true
					})
					if err != nil {
						scanFail("scan oracle: round %d: Ascend: %v", round, err)
					} else if seenFix != len(fixtures) {
						scanFail("scan oracle: round %d from %d: %d of %d present-throughout fixtures delivered",
							round, lo, seenFix, len(fixtures))
					}
				})
				scanChecks.Add(1)
				select {
				case <-stopScan:
					return
				default:
				}
			}
		}()
	}

	// Concurrent phase: every worker runs a deterministic op stream drawn
	// from its own seed and tallies its successful mutations per key. The
	// op stream is keyed to the worker index; which slot executes each
	// batch is schedule-dependent and irrelevant to the oracle.
	tallies := make([]workerTally, cfg.Threads)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := &tallies[w]
			t.ins = make([]int64, cfg.Keys+1)
			t.rem = make([]int64, cfg.Keys+1)
			defer func() {
				if r := recover(); r != nil {
					buf := make([]byte, 8<<10)
					buf = buf[:runtime.Stack(buf, false)]
					t.err = fmt.Errorf("worker %d panicked: %v\n%s", w, r, buf)
				}
			}()
			h := pool.Handle()
			sp := new(obs.Span) // one span object, re-armed per lease batch
			who := fmt.Sprint("worker ", w)
			rng := cfg.Seed*0x2545f4914f6cdd1d + uint64(w+1)
			var batch []sets.Op
			if cfg.BatchOps > 1 {
				batch = make([]sets.Op, 0, cfg.BatchOps)
			}
			for i := 0; i < cfg.Ops; {
				lease(h.Do, who, func(tid int) {
					sp.Reset("torture", obs.Now())
					armSpan(tid, sp)
					defer func() { armSpan(tid, nil); sp.Finish(obs.Now()) }()
					for b := 0; b < leaseBatch && i < cfg.Ops; i = i + 1 {
						r := splitmix64(&rng)
						k := 1 + (r>>16)%cfg.Keys
						var kind sets.OpKind
						switch {
						case int(r%100) < cfg.LookupPct:
							kind = sets.OpLookup
						case r&(1<<40) == 0:
							kind = sets.OpInsert
						default:
							kind = sets.OpRemove
						}
						if cfg.BatchOps > 1 {
							// Same op stream, grouped through Apply: the exact
							// oracle below then also pins Apply's per-op results
							// against the sequential semantics.
							batch = append(batch, sets.Op{Kind: kind, Key: k})
							if len(batch) == cfg.BatchOps || i+1 == cfg.Ops {
								for j, got := range s.Apply(tid, batch) {
									if got {
										switch batch[j].Kind {
										case sets.OpInsert:
											t.ins[batch[j].Key]++
										case sets.OpRemove:
											t.rem[batch[j].Key]++
										}
									}
								}
								b += len(batch)
								batch = batch[:0]
							}
							continue
						}
						b++
						switch kind {
						case sets.OpLookup:
							s.Lookup(tid, k)
						case sets.OpInsert:
							if s.Insert(tid, k) {
								t.ins[k]++
							}
						default:
							if s.Remove(tid, k) {
								t.rem[k]++
							}
						}
					}
				})
			}
		}(w)
	}

	// Batch-atomicity pin: while the workers churn, a toggler flips a key
	// pair (outside the oracle's key range, co-resident on one shard) with
	// two-op batches — insert both, then remove both — and an observer
	// batch-looks-up both. Each lookup batch is one transaction, so it must
	// see the pair together or not at all; one-of-two is a torn batch.
	// The lock-free baselines document Apply as per-op (non-atomic), so the
	// pin only runs where the contract holds.
	var pairChecks, pairTorn atomic.Uint64
	if cfg.BatchOps > 1 && inst.atomicBatch {
		pA := cfg.Keys + 1
		pB := pA + 1
		for serve.ShardOf(pB, cfg.Shards) != serve.ShardOf(pA, cfg.Shards) {
			pB++
		}
		stopPairs := make(chan struct{})
		var pairWg sync.WaitGroup
		pairWg.Add(2)
		go func() { // toggler
			defer pairWg.Done()
			h := pool.Handle()
			ins := []sets.Op{{Kind: sets.OpInsert, Key: pA}, {Kind: sets.OpInsert, Key: pB}}
			del := []sets.Op{{Kind: sets.OpRemove, Key: pA}, {Kind: sets.OpRemove, Key: pB}}
			for on := false; ; on = !on {
				select {
				case <-stopPairs:
					// Leave the pair absent so the oracle, snapshot range and
					// memory books below are untouched by the pin.
					lease(h.Do, "pair toggler", func(tid int) { s.Apply(tid, del) })
					return
				default:
				}
				ops := ins
				if on {
					ops = del
				}
				lease(h.Do, "pair toggler", func(tid int) { s.Apply(tid, ops) })
			}
		}()
		go func() { // observer
			defer pairWg.Done()
			h := pool.Handle()
			look := []sets.Op{{Kind: sets.OpLookup, Key: pA}, {Kind: sets.OpLookup, Key: pB}}
			// Check-then-poll order: on a single-CPU box the workers can
			// finish before this goroutine is first scheduled, and the pin
			// must still record at least one check.
			for {
				lease(h.Do, "pair observer", func(tid int) {
					res := s.Apply(tid, look)
					pairChecks.Add(1)
					if res[0] != res[1] {
						pairTorn.Add(1)
					}
				})
				select {
				case <-stopPairs:
					return
				default:
				}
			}
		}()
		wg.Wait()
		close(stopPairs)
		pairWg.Wait()
	} else {
		wg.Wait()
	}
	rep.PairChecks = pairChecks.Load()

	if inst.canScan {
		close(stopScan)
		scanWg.Wait()
		// Retire the fixtures before quiesce so the exact oracle, snapshot
		// range and memory books below see only the run's own key space.
		lease(pool.Do, "scan fixtures", func(tid int) {
			for _, k := range fixtures {
				if !s.Remove(tid, k) {
					scanFails = append(scanFails, fmt.Sprintf("scan oracle: fixture %d missing at teardown", k))
				}
			}
		})
	}
	rep.ScanChecks = scanChecks.Load()

	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	for i := range tallies {
		if tallies[i].err != nil {
			fail("%v", tallies[i].err)
		}
	}
	failures = append(failures, scanFails...)
	if torn := pairTorn.Load(); torn > 0 {
		fail("batch atomicity: %d of %d pair lookups saw a torn batch (one key of an atomically toggled pair)",
			torn, pairChecks.Load())
	}
	if len(failures) > 0 {
		// A worker died mid-transaction; the structure may hold locks, so
		// post-quiesce checks would only add noise.
		return rep, runError(cfg, inst, failures)
	}

	// Quiesce and drain deferred reclamation. A sequential Finish sweep
	// (pool.FinishAll) can leave a slot's retirees pinned by hazards that
	// slots with higher ids only clear in their own (later) Finish; after
	// round one the leftovers must be bounded by the published-slot count,
	// and a second round — with every slot cleared — must free them all.
	pool.FinishAll()
	if inst.traits.DrainRounds > 1 {
		if inst.traits.StrandBound {
			// Every shard holds the full slot complement (the facade registers
			// each tid everywhere), so the hazard bound scales with the shard
			// count. Hazard Eras takes round 2 but skips this bound: a single
			// stale era reservation strands every retiree whose lifetime
			// interval contains it, which the slot count does not cap.
			bound := uint64(cfg.Threads) * 3 * uint64(cfg.Shards)
			if left := inst.view.ReclaimStats().Leftover; left > bound {
				fail("after Finish round 1: %d leftover retirees exceeds the hazard-slot bound %d", left, bound)
			}
		}
		pool.FinishAll()
	}

	// Exact oracle: presence after quiesce is prefill presence plus the
	// net successful mutations, key by key, in any interleaving.
	for k := uint64(1); k <= cfg.Keys; k++ {
		for i := range tallies {
			presence[k] += tallies[i].ins[k] - tallies[i].rem[k]
			rep.Inserts += uint64(tallies[i].ins[k])
			rep.Removes += uint64(tallies[i].rem[k])
		}
		if presence[k] != 0 && presence[k] != 1 {
			fail("key %d: net presence %d (duplicate insert or phantom remove)", k, presence[k])
		}
	}

	snap := s.Snapshot()
	rep.Size = len(snap)
	for i, k := range snap {
		if k < 1 || k > cfg.Keys {
			fail("snapshot[%d] = %d outside key range [1, %d]", i, k, cfg.Keys)
		}
		if i > 0 && snap[i-1] >= k {
			fail("snapshot not strictly sorted at %d: %d then %d", i-1, snap[i-1], k)
		}
	}
	want := 0
	for k := uint64(1); k <= cfg.Keys; k++ {
		if presence[k] == 1 {
			want++
			if _, ok := slices.BinarySearch(snap, k); !ok {
				fail("oracle says key %d present, snapshot disagrees", k)
			}
		}
	}
	if want != len(snap) {
		fail("oracle size %d != snapshot size %d", want, len(snap))
	}

	// The verdict at quiescence, shard by shard: every worker id at rest,
	// and each shard's drained memory books balanced against its own keys.
	var err error
	if rep.Books, err = inst.view.Books(cfg.Threads, true); err != nil {
		fail("%v", err)
	}
	rep.AvgDelayOps = inst.view.ReclaimStats().AvgDelayOps()

	if inst.validate != nil {
		if err := inst.validate(); err != nil {
			fail("%v", err)
		}
	}

	if inst.guard != nil {
		gs := inst.view.GuardStats()
		rep.PoisonReads = gs.PoisonReads
		rep.Violations = gs.Violations
		for _, ev := range inst.guard.take() {
			fail("guard: %s", ev)
		}
		if rep.Violations != 0 && len(inst.guard.take()) == 0 {
			fail("guard: %d violations counted", rep.Violations)
		}
	}

	if len(failures) > 0 {
		return rep, runError(cfg, inst, failures)
	}
	return rep, nil
}

// flightDumpTail bounds how much of the flight recorder a failure embeds.
const flightDumpTail = 200

func runError(cfg Config, inst *instance, failures []string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "torture run failed (repro: %s):\n  - %s",
		cfg, strings.Join(failures, "\n  - "))
	if inst != nil {
		// Dump the flight recorder(s) right next to the repro line: the last
		// few hundred lifecycle events plus the who-aborted-whom matrix are
		// usually enough to localize a schedule-dependent bug without
		// rerunning the seed under a debugger. A sharded run dumps every
		// shard's recorder — the failing transaction lives in exactly one.
		for _, d := range inst.domains() {
			b.WriteString("\n")
			d.DumpFlight(&b, flightDumpTail)
		}
	}
	return fmt.Errorf("%s", b.String())
}
