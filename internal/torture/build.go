package torture

import (
	"fmt"
	"sync"

	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/family"
	"hohtx/internal/obs"
	"hohtx/internal/reclaim"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
)

// Structures lists every structure the harness can torture: the family
// table's names, which Config.Structure takes.
func Structures() []string { return family.Names() }

// Variants returns the mechanism labels the family table defines for a
// structure (nil for an unknown one): the six reservation kinds, HTM,
// whichever modes of internal/reclaim the structure takes — a scheme added
// with reclaim.RegisterScheme included — and its lock-free comparators.
func Variants(structure string) []string {
	row, err := family.ByName(structure)
	if err != nil {
		return nil
	}
	return row.Variants()
}

// guardCollector gathers use-after-free events reported by the arena so a
// violation fails the run with a reproducible seed instead of panicking
// mid-schedule.
type guardCollector struct {
	mu     sync.Mutex
	events []arena.GuardEvent
}

func (g *guardCollector) sink(ev arena.GuardEvent) {
	g.mu.Lock()
	g.events = append(g.events, ev)
	g.mu.Unlock()
}

func (g *guardCollector) take() []arena.GuardEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.events
}

// instance is a built structure plus the metadata the invariant checks
// need: how many arena nodes one key costs, the sentinel overhead, the
// reclamation discipline, and structure-specific validators.
type instance struct {
	set      sets.Set
	guard    *guardCollector // nil when the variant cannot run guarded
	obs      *obs.Domain     // flight recorder; nil for the lock-free baselines
	obsAll   []*obs.Domain   // sharded runs: one domain per shard
	perKey   uint64          // arena nodes per resident key
	baseLive uint64          // sentinel/bootstrap nodes (measured post-build)
	canScan  bool            // Ascender-capable: the scan oracle engages
	// atomicBatch marks structures whose Apply runs a batch as one
	// transaction per shard (the TM-backed ones); the lock-free baselines
	// document Apply as per-op, so the batch-atomicity pin skips them.
	atomicBatch bool
	traits      reclaim.Traits
	reclaim     func() reclaim.Stats
	validate    func() error
}

// domains returns every observability domain the instance carries: the
// per-shard list for sharded runs, the single domain otherwise, nothing
// for the uninstrumented lock-free baselines.
func (inst *instance) domains() []*obs.Domain {
	if len(inst.obsAll) > 0 {
		return inst.obsAll
	}
	if inst.obs != nil {
		return []*obs.Domain{inst.obs}
	}
	return nil
}

// build constructs the instance for a run: one structure × variant ×
// policy instance, or — when cfg.Shards > 1 — that many of them behind
// the serve.Sharded routing facade.
func build(cfg Config) (*instance, error) {
	var guard *guardCollector
	if cfg.Guard {
		// One collector for the whole run: in a sharded run every shard's
		// arena reports into the same sink, so a violation anywhere fails
		// the run with the one repro line.
		guard = &guardCollector{}
	}
	var inst *instance
	var err error
	if cfg.Shards <= 1 {
		inst, err = buildOne(cfg, guard, cfg.Structure+"/"+cfg.Variant)
	} else {
		inst, err = buildSharded(cfg, guard)
	}
	if err != nil {
		return nil, err
	}
	inst.canScan = sets.CanAscend(inst.set)
	return inst, nil
}

// buildOne constructs a single structure × variant × policy instance from
// the structure's row of the family table, reporting guard events into the
// given collector (nil = unguarded) and naming its observability domain
// obsName.
func buildOne(cfg Config, guard *guardCollector, obsName string) (*instance, error) {
	row, err := family.ByName(cfg.Structure)
	if err != nil {
		return nil, fmt.Errorf("torture: %w", err)
	}
	var sink func(arena.GuardEvent)
	if guard != nil {
		sink = guard.sink
	}
	// Every TM-backed instance carries an always-sampled observability
	// domain so a failed run can dump its flight recorder next to the repro
	// line; the lock-free baselines ignore it.
	dom := obs.NewDomain(obs.DomainConfig{Name: obsName, Threads: cfg.Threads})
	set, err := row.Build(cfg.Variant, reclaim.Config{
		Threads: cfg.Threads, Window: core.Window{W: cfg.Window},
		ArenaPolicy: cfg.Policy, Guard: cfg.Guard, GuardSink: sink, Obs: dom,
	})
	if err != nil {
		return nil, fmt.Errorf("torture: %w", err)
	}
	inst := &instance{
		set: set, perKey: row.PerKey,
		traits: set.ReclaimTraits(), reclaim: set.ReclaimStats,
	}
	if row.Holds != nil {
		inst.validate = func() error {
			if !row.Holds(set) {
				return fmt.Errorf("%s violated", row.Invariant)
			}
			return nil
		}
	}
	if _, tm := set.(sets.TMStatsReporter); tm {
		// TM-backed: observed, guardable, and every Apply is one transaction.
		inst.obs, inst.guard, inst.atomicBatch = dom, guard, true
	}
	if mr, ok := inst.set.(sets.MemoryReporter); ok {
		// The freshly built structure's sentinel/bootstrap node count is
		// the constant term of the memory-accounting invariant.
		inst.baseLive = mr.LiveNodes()
	}
	return inst, nil
}

// buildSharded constructs cfg.Shards independent instances and combines
// them behind serve.Sharded. The combined instance's invariant metadata
// aggregates the shards' (summed base nodes and reclamation counters,
// max drain rounds), and its validator descends into each shard: the
// structure-specific checks run per shard, and so does the exact memory
// book — live nodes in shard i must equal shard i's sentinels plus
// perKey × its resident keys, not just in aggregate, because two shards
// leaking in opposite directions would cancel in the sum.
func buildSharded(cfg Config, guard *guardCollector) (*instance, error) {
	subs := make([]*instance, cfg.Shards)
	parts := make([]sets.Set, cfg.Shards)
	for i := range subs {
		si, err := buildOne(cfg, guard, fmt.Sprintf("%s/%s#s%d", cfg.Structure, cfg.Variant, i))
		if err != nil {
			return nil, err
		}
		subs[i] = si
		parts[i] = si.set
	}
	first := subs[0]
	inst := &instance{
		set:         serve.NewSharded(parts),
		guard:       first.guard,
		obs:         first.obs,
		perKey:      first.perKey,
		atomicBatch: first.atomicBatch,
		traits:      first.traits,
	}
	for _, si := range subs {
		inst.baseLive += si.baseLive
		if si.obs != nil {
			inst.obsAll = append(inst.obsAll, si.obs)
		}
	}
	inst.reclaim = func() reclaim.Stats {
		var out reclaim.Stats // PeakDeferred sums to an upper bound: peaks need not align
		for _, si := range subs {
			out.Add(si.reclaim())
		}
		return out
	}
	inst.validate = func() error {
		for i, si := range subs {
			if si.validate != nil {
				if err := si.validate(); err != nil {
					return fmt.Errorf("shard %d: %w", i, err)
				}
			}
			if mr, ok := si.set.(sets.MemoryReporter); ok {
				bad := si.checkBooks(mr, uint64(len(si.set.Snapshot())))
				if len(bad) > 0 {
					return fmt.Errorf("shard %d: %s", i, bad[0])
				}
			}
		}
		return nil
	}
	return inst, nil
}

// checkBooks balances the instance's memory books at quiescence, after the
// full drain, for a structure holding size keys. Precise modes must balance
// exactly — that is the paper's claim; deferred modes balance once the
// deferred remainder is added back, and non-leaky deferred modes must have
// drained to zero.
func (inst *instance) checkBooks(mr sets.MemoryReporter, size uint64) (bad []string) {
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	live, def := mr.LiveNodes(), mr.DeferredNodes()
	expect := inst.baseLive + inst.perKey*size
	switch {
	case !inst.traits.Deferred:
		if live != expect {
			fail("precise mode: live %d != sentinels %d + %d per key × size %d = %d",
				live, inst.baseLive, inst.perKey, size, expect)
		}
		if def != 0 {
			fail("precise mode: %d deferred nodes", def)
		}
	case inst.traits.Leak:
		if live != expect+def {
			fail("leak mode: live %d != %d expected + %d leaked", live, expect, def)
		}
	default:
		if def != 0 {
			fail("deferred mode: %d nodes still deferred after full drain", def)
		}
		if left := inst.reclaim().Leftover; left != 0 {
			fail("deferred mode: %d leftover retirees after full drain", left)
		}
		if live != expect {
			fail("deferred mode after drain: live %d != expected %d", live, expect)
		}
	}
	return bad
}
