package bench

import (
	"cmp"
	"fmt"

	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/family"
	"hohtx/internal/obs"
	"hohtx/internal/reclaim"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Family identifies which data structure an experiment runs on: the name of
// a row of the family table (internal/family), which is where every family
// that exists is listed. The constants name the ones the figures use.
type Family string

const (
	FamilySingly       Family = family.Singly // Figure 2
	FamilyDoubly       Family = family.Doubly // Figures 3 and 5
	FamilyInternalTree Family = family.ITree  // Figure 6
	FamilyExternalTree Family = family.ETree  // Figure 7
	FamilySkipList     Family = family.Skip   // paper §6 future work; extension benches only
)

// VariantSpec fully determines how to build one series' data structure.
type VariantSpec struct {
	// Name is the series legend label: the paper's ("RR-XO", "HTM",
	// "TMHP", "REF", "LFLeak", "LFHP") plus the extended reclamation
	// matrix's "TMHE" and "TMVBR" (DESIGN.md §14).
	Name string
	// Window is the hand-over-hand window size W (ignored by HTM and the
	// lock-free variants). Zero means "use BestWindow for the family and
	// thread count".
	Window int
	// NoScatter disables the first-window randomization (Fig. 4 ablation).
	NoScatter bool
	// Policy selects the arena free-list policy (Fig. 5).
	Policy arena.Policy
	// Capacity overrides the simulated HTM's tracked-cell capacity
	// (ablations; zero keeps the profile default).
	Capacity int
	// Observe attaches a fresh observability domain (package obs) to the
	// structure; the runner pulls latency and reclamation percentiles out
	// of it through the ObsReporter interface. The lock-free variants have
	// no instrumented sites and ignore it.
	Observe bool
	// ObsName overrides the observability domain's label (default: Name).
	// BuildSharded uses it to register each shard's domain under a
	// distinct name on the same endpoint.
	ObsName string
}

// BenchSampleShift traces 1 in 2^4 transactions when Observe is set:
// enough samples for stable p99s at bench op counts while keeping the
// probe cost off the critical path.
const BenchSampleShift = 4

// obsDomain builds the per-instance domain an observed spec attaches.
func obsDomain(spec VariantSpec, threads int) *obs.Domain {
	if !spec.Observe {
		return nil
	}
	return obs.NewDomain(obs.DomainConfig{
		Name:        cmp.Or(spec.ObsName, spec.Name),
		Threads:     threads,
		SampleShift: BenchSampleShift,
	})
}

// BestWindow returns the tuned window size for a family at a thread count
// (the family's row has the paper's findings); 0 for an unknown family.
func BestWindow(f Family, threads int) int {
	row, err := family.ByName(string(f))
	if err != nil {
		return 0
	}
	return row.Window(threads)
}

// Build constructs the variant for a family at a thread count. It returns
// an error for combinations the family table does not define (e.g. REF on
// the doubly linked list), naming the ones it does.
func Build(f Family, spec VariantSpec, threads int) (sets.Set, error) {
	row, err := family.ByName(string(f))
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	w := spec.Window
	if w == 0 {
		w = row.Window(threads)
	}
	cfg := reclaim.Config{
		Threads:     threads,
		Window:      core.Window{W: w, NoScatter: spec.NoScatter},
		ArenaPolicy: spec.Policy,
		Obs:         obsDomain(spec, threads),
	}
	if spec.Capacity > 0 {
		// A capacity override has to restate the family's own
		// serial-fallback threshold.
		cfg.Profile = stm.Profile{Capacity: spec.Capacity, MaxAttempts: row.Attempts}
	}
	set, err := row.Build(spec.Name, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return set, nil
}

// BuildSharded constructs shards independent instances of a variant —
// each with its own STM runtime (global clock, serial-fallback lock),
// arena, and reclamation scheme — behind the serve.Sharded routing
// facade, all configured for the same per-shard thread count. The result
// still implements sets.Set, so benchmarks, the torture harness, and the
// lease pool drive it unchanged; front ends that want one lease pool per
// shard reach the underlying sets through Shard(i).
//
// Observed specs get one obs domain per shard, named "<ObsName|Name>-s<i>"
// so all of them can register on a single endpoint without colliding.
func BuildSharded(f Family, spec VariantSpec, threads, shards int) (*serve.Sharded, error) {
	if shards <= 0 {
		shards = 1
	}
	parts := make([]sets.Set, shards)
	for i := range parts {
		s := spec
		if s.Observe {
			s.ObsName = fmt.Sprintf("%s-s%d", cmp.Or(s.ObsName, s.Name), i)
		}
		set, err := Build(f, s, threads)
		if err != nil {
			return nil, err
		}
		parts[i] = set
	}
	return serve.NewSharded(parts), nil
}

// RRNames returns the six reservation series labels in the paper's order.
func RRNames() []string {
	var out []string
	for _, k := range core.Kinds() {
		out = append(out, k.String())
	}
	return out
}
