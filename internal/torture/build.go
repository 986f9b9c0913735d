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
// need: the shards as one view (whose Books is the memory verdict), the
// reclamation discipline, and the structure's shape validator.
type instance struct {
	set   sets.Set
	view  *serve.Sharded  // the shards, even just one: the verdict, summed counters, span arming
	guard *guardCollector // nil when the variant cannot run guarded
	obs   *obs.Domain     // shard 0's flight recorder; nil for the lock-free baselines
	// atomicBatch marks structures whose Apply runs a batch as one
	// transaction per shard (the TM-backed ones); the lock-free baselines
	// document Apply as per-op, and the history records theirs op by op.
	atomicBatch bool
	traits      reclaim.Traits
	validate    func() error
}

// domains returns every shard's observability domain (none for the
// uninstrumented lock-free baselines).
func (inst *instance) domains() (out []*obs.Domain) {
	for i := 0; i < inst.view.ShardCount(); i++ {
		if or, ok := inst.view.Shard(i).(sets.ObsReporter); ok {
			out = append(out, or.ObsDomain())
		}
	}
	return out
}

// build constructs cfg.Shards instances from the structure's row of the
// family table, each under an always-sampled observability domain (a
// failed run dumps its flight recorder), behind the serve.Sharded facade
// when there are several; guard events from every shard go to one collector.
func build(cfg Config) (*instance, error) {
	row, err := family.ByName(cfg.Structure)
	if err != nil {
		return nil, fmt.Errorf("torture: %w", err)
	}
	var guard *guardCollector
	var sink func(arena.GuardEvent)
	if cfg.Guard {
		guard = &guardCollector{}
		sink = guard.sink
	}
	parts := make([]sets.Set, cfg.Shards)
	var doms []*obs.Domain
	for i := range parts {
		name := cfg.Structure + "/" + cfg.Variant
		if cfg.Shards > 1 {
			name = fmt.Sprintf("%s#s%d", name, i)
		}
		doms = append(doms, obs.NewDomain(obs.DomainConfig{Name: name, Threads: cfg.Threads}))
		if parts[i], err = row.Build(cfg.Variant, reclaim.Config{
			Threads: cfg.Threads, Window: core.Window{W: cfg.Window},
			ArenaPolicy: cfg.Policy, Guard: cfg.Guard, GuardSink: sink, Obs: doms[i],
		}); err != nil {
			return nil, fmt.Errorf("torture: %w", err)
		}
	}
	inst := &instance{set: parts[0], view: serve.NewSharded(parts), traits: parts[0].(family.Set).Books(0).Traits}
	if cfg.Shards > 1 {
		inst.set = inst.view
	}
	if _, tm := parts[0].(sets.TMStatsReporter); tm {
		// TM-backed: observed, guardable, and every Apply is one transaction.
		inst.obs, inst.guard, inst.atomicBatch = doms[0], guard, true
	}
	if row.Holds != nil {
		inst.validate = func() error {
			for i, p := range parts {
				if !row.Holds(p.(family.Set)) {
					return fmt.Errorf("shard %d: %s violated", i, row.Invariant)
				}
			}
			return nil
		}
	}
	return inst, nil
}
