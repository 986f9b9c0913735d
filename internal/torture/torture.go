package torture

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hohtx/internal/arena"
	"hohtx/internal/loadgen"
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
	// in groups of this many ops instead of one call per op.
	BatchOps int
	// Shards partitions the key space across this many independent
	// instances behind serve.Sharded (default 1); each keeps its own books.
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
	s := fmt.Sprintf("torture -structure=%s -variant=%s -policy=%d -threads=%d -ops=%d -keys=%d -lookup=%d -window=%d -seed=%d",
		c.Structure, c.Variant, c.Policy, c.Threads, c.Ops, c.Keys, c.LookupPct, c.Window, c.Seed)
	if c.Shards > 1 {
		s += fmt.Sprintf(" -shards=%d", c.Shards)
	}
	if c.BatchOps > 1 {
		s += fmt.Sprintf(" -batch=%d", c.BatchOps)
	}
	if c.Guard {
		s += " -guard"
	}
	return s
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
	ScanChecks  uint64        // checked scans: one per worker lease batch (Ascender variants)
}

// leaseBatch is how many operations a worker runs under one slot lease
// before releasing it — short enough that streams migrate across slots
// many times per run, long enough that the pool is not the bottleneck.
const leaseBatch = 64

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

// A cell not finished by its deadline, watchdogPerOp for each of its
// Ops × Threads operations (at least watchdogMinOps), fails with evidence:
// a clean cell spends microseconds on an op, the race detector tens of them.
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

	// All worker-id traffic goes through a lease pool, in short batches, so
	// one op stream migrates across worker ids mid-run: per-slot state
	// (reservations, hazard slots, allocator magazines) must not leak
	// between the streams that share a slot over time.
	pool := serve.NewPool(s, serve.PoolConfig{Slots: cfg.Threads, Obs: inst.obs})
	lease := func(do func(context.Context, func(int)) error, who string, fn func(tid int)) {
		_ = do(context.Background(), func(tid int) {
			leases[tid].Store(&who)
			defer leases[tid].Store(nil)
			fn(tid)
		})
	}

	// Each worker re-arms one obs.Span around every lease batch, as the
	// serving layer does, so the stamping sites run under the race detector
	// with tracing live and span lifecycle bugs panic (Reset on a leaked
	// span, Finish on a finished one).
	armSpan := inst.view.ArmSpan

	// Prefill half the key space single-threaded so removals have
	// something to chew on from the first operation. It is history too.
	pre := recorder{who: "prefill"}
	lease(pool.Do, "prefill", func(tid int) {
		for _, k := range loadgen.PrefillOrder(cfg.Keys, cfg.Seed) {
			op := []sets.Op{{Kind: sets.OpInsert, Key: k}}
			inv := obs.Now()
			res := sets.ApplyEach(s, tid, op)
			pre.call(inv, obs.Now(), op, res)
		}
	})

	// Concurrent phase: every worker runs a deterministic op stream drawn
	// from its own seed and records each call, with its interval, in its
	// own log. On Ascender instances each lease batch starts with one scan
	// from a random key.
	asc, canScan := s.(sets.Ascender)
	canScan = canScan && inst.view.CanAscend() // a sharded view over trees is an Ascender with no cursor
	apply := s.Apply
	if cfg.BatchOps <= 1 {
		apply = func(tid int, ops []sets.Op) []bool { return sets.ApplyEach(s, tid, ops) } // the single-op methods
	}
	load := loadgen.Mix{Keys: cfg.Keys, Reads: cfg.LookupPct}
	recs := make([]recorder, cfg.Threads)
	errs := make([]error, cfg.Threads)
	var wg sync.WaitGroup
	for w := range recs {
		recs[w] = recorder{who: fmt.Sprint("worker ", w), shards: cfg.Shards, atomic: inst.atomicBatch, log: make([]entry, 0, cfg.Ops+cfg.Ops/leaseBatch+1)}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("worker %d panicked: %v\n%s", w, r, debug.Stack())
				}
			}()
			rec := &recs[w]
			h := pool.Handle()
			sp := new(obs.Span) // one span object, re-armed per lease batch
			rng := cfg.Seed*0x2545f4914f6cdd1d + uint64(w+1)
			batch := make([]sets.Op, 0, max(cfg.BatchOps, 1))
			for i := 0; i < cfg.Ops; {
				lease(h.Do, rec.who, func(tid int) {
					sp.Reset("torture", obs.Now())
					armSpan(tid, sp)
					defer func() { armSpan(tid, nil); sp.Finish(obs.Now()) }()
					if canScan {
						lo, keys, inv := loadgen.SplitMix64(&rng)%(cfg.Keys+1), []uint64(nil), obs.Now()
						if err := asc.Ascend(tid, lo, func(k uint64) bool { keys = append(keys, k); return true }); err != nil {
							panic(fmt.Sprintf("Ascend from %d: %v", lo, err))
						}
						rec.log = append(rec.log, entry{who: rec.who, inv: inv, resp: obs.Now(), lo: lo, keys: keys})
					}
					for b := 0; b < leaseBatch && i < cfg.Ops; b, i = b+1, i+1 {
						op, _ := load.Draw(&rng)
						batch = append(batch, op)
						if len(batch) < cfg.BatchOps && b+1 < leaseBatch && i+1 < cfg.Ops {
							continue
						}
						inv := obs.Now()
						res := apply(tid, batch)
						rec.call(inv, obs.Now(), batch, res)
						batch = batch[:0]
					}
				})
			}
		}(w)
	}
	wg.Wait()

	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	for _, err := range errs {
		if err != nil {
			fail("%v", err)
		}
	}
	if len(failures) > 0 {
		// A worker died mid-transaction; the structure may hold locks, so
		// post-quiesce checks would only add noise.
		return rep, runError(cfg, inst, failures)
	}

	// Quiesce and drain deferred reclamation. After one Finish round a
	// slot's retirees may still be pinned by hazards of slots with higher
	// ids, at most the published-slot count; a second round frees them all.
	pool.FinishAll()
	if inst.traits.DrainRounds > 1 {
		if inst.traits.StrandBound {
			// Every shard holds every slot, so the bound scales with shards.
			// Hazard Eras skips it: one stale era strands every retiree whose
			// lifetime contains it, which the slot count does not cap.
			bound := uint64(cfg.Threads) * 3 * uint64(cfg.Shards)
			if left := inst.view.ReclaimStats().Leftover; left > bound {
				fail("after Finish round 1: %d leftover retirees exceeds the hazard-slot bound %d", left, bound)
			}
		}
		pool.FinishAll()
	}

	inv, snap := obs.Now(), s.Snapshot()
	rep.Size = len(snap)

	// One verdict on what every call returned: the history, closed by the
	// snapshot as a scan after everything, must be linearizable.
	history := append(pre.log, entry{who: "snapshot", inv: inv, resp: obs.Now(), keys: snap})
	for _, r := range recs {
		history = append(history, r.log...)
		for _, e := range r.log {
			if e.ops == nil {
				rep.ScanChecks++
			}
			for j, op := range e.ops {
				if e.res[j] && op.Kind == sets.OpInsert {
					rep.Inserts++
				} else if e.res[j] && op.Kind == sets.OpRemove {
					rep.Removes++
				}
			}
		}
	}
	failures = append(failures, check(history)...)

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
		// Every shard's flight recorder, next to the repro line: the last
		// lifecycle events and the who-aborted-whom matrix.
		for _, d := range inst.domains() {
			b.WriteString("\n")
			d.DumpFlight(&b, flightDumpTail)
		}
	}
	return fmt.Errorf("%s", b.String())
}
