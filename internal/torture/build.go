package torture

import (
	"fmt"
	"sync"

	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/list"
	"hohtx/internal/lockfree"
	"hohtx/internal/obs"
	"hohtx/internal/reclaim"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
	"hohtx/internal/skiplist"
	"hohtx/internal/tree"
)

// Structure names accepted by Config.Structure.
const (
	StructSingly = "singly" // singly linked list
	StructDoubly = "doubly" // doubly linked list
	StructHash   = "hash"   // bucketed hash set
	StructITree  = "itree"  // internal BST
	StructETree  = "etree"  // external BST
	StructSkip   = "skip"   // skiplist
)

// Structures lists every structure the harness can torture.
func Structures() []string {
	return []string{StructSingly, StructDoubly, StructHash, StructITree, StructETree, StructSkip}
}

// Variants returns the mechanism labels defined for a structure: the six
// reservation kinds, the whole-operation HTM baseline, whichever of the
// deferred-reclamation comparators (TMHP, REF, ER) and lock-free
// baselines (Leak, LFHP) the paper defines for it, plus the extended
// reclamation matrix's TMHE and TMVBR (DESIGN.md §14) wherever the
// structure supports deferred modes.
func Variants(structure string) []string {
	var rr []string
	for _, k := range core.Kinds() {
		rr = append(rr, k.String())
	}
	switch structure {
	case StructSingly:
		return append(rr, "HTM", "TMHP", "TMHE", "TMVBR", "REF", "ER", "Leak", "LFHP")
	case StructDoubly:
		return append(rr, "HTM", "TMHP", "TMHE", "TMVBR")
	case StructHash:
		return append(rr, "HTM", "TMHP", "TMHE", "TMVBR", "REF", "ER")
	case StructITree:
		return append(rr, "HTM")
	case StructETree:
		return append(rr, "HTM", "TMHP", "TMHE", "TMVBR", "Leak")
	case StructSkip:
		return append(rr, "HTM", "TMHE", "TMVBR")
	default:
		return nil
	}
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

// reclaimer is what every tortured set reports about its reclamation: the
// counters, and the scheme's own facts (reclaim.Traits) — which discipline
// the memory books follow, how many Finish rounds drain it, whether round
// one's leftovers are slot-bounded.
type reclaimer interface {
	ReclaimStats() reclaim.Stats
	ReclaimTraits() reclaim.Traits
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

// buildOne constructs a single structure × variant × policy instance,
// reporting guard events into the given collector (nil = unguarded) and
// naming its observability domain obsName. Which variants a structure
// takes is the structure package's ModeByName; only the lock-free
// baselines are resolved here.
func buildOne(cfg Config, guard *guardCollector, obsName string) (*instance, error) {
	inst := &instance{perKey: 1}
	undefined := fmt.Errorf("torture: variant %q is undefined for %s", cfg.Variant, cfg.Structure)
	var sink func(arena.GuardEvent)
	if guard != nil {
		sink = guard.sink
	}
	// Every TM-backed instance carries an always-sampled observability
	// domain so a failed run can dump its flight recorder next to the repro
	// line. The lock-free baselines return before it is attached.
	dom := obs.NewDomain(obs.DomainConfig{
		Name:       obsName,
		Threads:    cfg.Threads,
		RingEvents: 512,
	})
	// What every TM-backed structure is built from; the family's ModeByName
	// adds the selector pair.
	tm := reclaim.Config{
		Threads: cfg.Threads, Window: core.Window{W: cfg.Window},
		ArenaPolicy: cfg.Policy, Guard: cfg.Guard, GuardSink: sink, Obs: dom,
	}
	var ok bool
	validator := func(holds func() bool, what string) func() error {
		return func() error {
			if !holds() {
				return fmt.Errorf("%s violated", what)
			}
			return nil
		}
	}
	var set interface {
		sets.Set
		reclaimer
	}

	switch cfg.Structure {
	case StructSingly, StructDoubly, StructHash:
		if cfg.Variant == "Leak" || cfg.Variant == "LFHP" {
			if cfg.Structure != StructSingly {
				return nil, undefined
			}
			set = lockfree.NewHarrisList(lockfree.ListConfig{
				Threads:           cfg.Threads,
				UseHazardPointers: cfg.Variant == "LFHP",
				ArenaPolicy:       cfg.Policy,
			})
			break
		}
		if tm.Mode, tm.RRKind, ok = list.ModeByName(cfg.Variant, cfg.Structure == StructDoubly); !ok {
			return nil, undefined
		}
		inst.obs = dom
		switch cfg.Structure {
		case StructSingly:
			set = list.New(tm)
		case StructDoubly:
			d := list.NewDoubly(tm)
			set, inst.validate = d, validator(d.ValidateLinks, "prev/next link symmetry")
		case StructHash:
			set = list.NewHashTable(tm, cfg.Threads*4)
		}

	case StructITree, StructETree:
		if cfg.Variant == "Leak" {
			if cfg.Structure != StructETree {
				return nil, undefined
			}
			t := lockfree.NewNMTree(lockfree.NMConfig{Threads: cfg.Threads})
			set, inst.validate = t, validator(t.ValidateRouting, "NM-tree routing invariant")
			inst.perKey = 2
			break
		}
		if tm.Mode, tm.RRKind, ok = tree.ModeByName(cfg.Variant, cfg.Structure == StructITree); !ok {
			return nil, undefined
		}
		inst.obs = dom
		if cfg.Structure == StructITree {
			t := tree.NewInternal(tm)
			set, inst.validate = t, validator(t.ValidateBST, "BST ordering invariant")
		} else {
			t := tree.NewExternal(tm)
			set, inst.validate = t, validator(t.ValidateRouting, "external-tree routing invariant")
			inst.perKey = 2
		}

	case StructSkip:
		if tm.Mode, tm.RRKind, ok = skiplist.ModeByName(cfg.Variant); !ok {
			return nil, undefined
		}
		s := skiplist.New(tm)
		inst.obs = dom
		set, inst.validate = s, validator(s.ValidateLevels, "skiplist level invariant")

	default:
		return nil, fmt.Errorf("torture: unknown structure %q", cfg.Structure)
	}

	inst.set = set
	inst.traits = set.ReclaimTraits()
	inst.reclaim = set.ReclaimStats
	if inst.obs != nil {
		// TM-backed: guardable, and every Apply is one transaction.
		inst.guard = guard
		inst.atomicBatch = true
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
		var out reclaim.Stats
		for _, si := range subs {
			st := si.reclaim()
			out.Retired += st.Retired
			out.Freed += st.Freed
			out.Deferred += st.Deferred
			out.PeakDeferred += st.PeakDeferred // upper bound: peaks need not align
			out.Scans += st.Scans
			out.DelayOpsSum += st.DelayOpsSum
			out.Leftover += st.Leftover
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
			mr, ok := si.set.(sets.MemoryReporter)
			if !ok {
				continue
			}
			live, def := mr.LiveNodes(), mr.DeferredNodes()
			expect := si.baseLive + si.perKey*uint64(len(si.set.Snapshot()))
			switch {
			case !si.traits.Deferred:
				if live != expect {
					return fmt.Errorf("shard %d: precise mode: live %d != expected %d", i, live, expect)
				}
				if def != 0 {
					return fmt.Errorf("shard %d: precise mode: %d deferred nodes", i, def)
				}
			case si.traits.Leak:
				if live != expect+def {
					return fmt.Errorf("shard %d: leak mode: live %d != %d expected + %d leaked", i, live, expect, def)
				}
			default:
				if def != 0 {
					return fmt.Errorf("shard %d: deferred mode: %d nodes still deferred after full drain", i, def)
				}
				if live != expect {
					return fmt.Errorf("shard %d: deferred mode after drain: live %d != expected %d", i, live, expect)
				}
			}
		}
		return nil
	}
	return inst, nil
}
