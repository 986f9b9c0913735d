package bench

import (
	"fmt"
	"io"
	"runtime"

	"hohtx/internal/arena"
)

// Opts controls a figure regeneration run.
type Opts struct {
	// Threads are the thread counts to sweep; default {1, 2, 4, 8}.
	Threads []int
	// Seed for workload generation.
	Seed int64
	// OpsPerThread is each thread's operation count per series (the paper
	// uses 1M; the default here is 200k, which preserves every
	// steady-state effect at a fraction of the wall time).
	OpsPerThread int
	// TreeBits overrides the big tree panels' key-range bits (default 21,
	// as in the paper).
	TreeBits int
	// Out receives the TSV rows.
	Out io.Writer
}

func (o Opts) withDefaults() Opts {
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4, 8}
	}
	if o.Seed == 0 {
		o.Seed = 20170724 // SPAA'17's first day
	}
	if o.OpsPerThread <= 0 {
		o.OpsPerThread = 200_000
	}
	if o.TreeBits <= 0 {
		o.TreeBits = 21
	}
	return o
}

// series is one line of a panel: its TSV label and the spec that builds it.
type series struct {
	label string
	spec  VariantSpec
}

// named is one series per variant name, labelled with the name.
func named(names ...string) []series {
	out := make([]series, len(names))
	for i, n := range names {
		out[i] = series{n, VariantSpec{Name: n}}
	}
	return out
}

// panel is one workload of a figure and the series it compares. At each
// thread count its series form a group, reported as ratios to base.
type panel struct {
	name   string
	family Family
	wl     Workload
	base   string
	series []series
}

// group builds and prefills every series of the panel at a thread count.
func (p panel) group(threads int, seed int64) ([]member, error) {
	out := make([]member, len(p.series))
	for i, s := range p.series {
		if s.spec.Window == 0 {
			s.spec.Window = BestWindow(p.family, threads)
		}
		set, err := Build(p.family, s.spec, threads)
		if err != nil {
			return nil, err
		}
		Prefill(set, p.wl, threads, seed)
		out[i] = member{s.label, s.spec.Window, set}
	}
	return out, nil
}

// header emits the TSV column header once per figure. The trailing four
// columns carry the reclamation-latency view: mean retire→free distance
// plus its sampled p50/p99/max (zero unless the cell ran observed).
func header(w io.Writer) {
	fmt.Fprintln(w, "figure\tpanel\tvariant\tthreads\twindow\tmops\tratio\tratio_iqr\tahead\taborts_per_op\tserial_per_op\tpeak_deferred\tab_read\tab_valid\tab_wlock\tab_cap\tavg_delay\trec_p50\trec_p99\trec_max")
}

func emit(w io.Writer, fig, panel string, r Result) {
	fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%.4f\t%.3f\t%.3f\t%d\t%.4f\t%.5f\t%d\t%.4f\t%.4f\t%.4f\t%.4f\t%.1f\t%d\t%d\t%d\n",
		fig, panel, r.Series, r.Threads, r.Window, r.MopsPerSec, r.Ratio, r.RatioIQR, r.Ahead,
		r.AbortsPerOp, r.SerialPerOp, r.DeferredPeak,
		r.ReadConflictsPerOp, r.ValidationsPerOp, r.WriteLocksPerOp, r.CapacityPerOp,
		r.AvgDelayOps, r.ReclaimP50Ops, r.ReclaimP99Ops, r.ReclaimMaxOps)
}

// Figure regenerates one of the paper's figures (2–7) or the delay study
// (8), writing TSV rows to o.Out: one group per panel and thread count, one
// row per series. It returns an error if any series fails its balance check.
func Figure(n int, o Opts) error {
	o = o.withDefaults()
	panels, err := figurePanels(n, o)
	if err != nil {
		return err
	}
	header(o.Out)
	fig := fmt.Sprintf("fig%d", n)
	for _, p := range panels {
		for _, th := range o.Threads {
			runtime.GC() // one group alive at a time: the 21-bit trees are large
			group, err := p.group(th, o.Seed)
			if err != nil {
				return err
			}
			rs, err := measure(group, p.base, p.wl, th, o.Seed)
			if err != nil {
				return fmt.Errorf("%s %s: %w", fig, p.name, err)
			}
			for _, r := range rs {
				emit(o.Out, fig, p.name, r)
			}
		}
	}
	return nil
}

// figurePanels is each figure as data: its panels, each a workload, the
// series it plots and the baseline they are reported against.
func figurePanels(n int, o Opts) ([]panel, error) {
	var ps []panel
	grid := func(f Family, base string, bits, looks []int, of func(bits int) []series) {
		for _, b := range bits {
			for _, look := range looks {
				ps = append(ps, panel{fmt.Sprintf("%dbit/%d%%", b, look), f,
					Workload{KeyBits: b, LookupPct: look, OpsPerThread: o.OpsPerThread}, base, of(b)})
			}
		}
	}
	switch n {
	case 2:
		// Singly linked list; the lock-free series appear only in the
		// 10-bit panels, as in the paper.
		grid(FamilySingly, "TMHP", []int{6, 10}, []int{0, 33, 80}, func(bits int) []series {
			names := append(RRNames(), "HTM", "TMHP", "REF")
			if bits == 10 {
				names = append(names, "LFLeak", "LFHP")
			}
			return named(names...)
		})
	case 3:
		// Doubly linked list, Fig. 2's grid minus REF and lock-free.
		grid(FamilyDoubly, "TMHP", []int{6, 10}, []int{0, 33, 80}, func(int) []series {
			return named(append(RRNames(), "HTM", "TMHP")...)
		})
	case 4:
		// Window-size impact on the singly linked list, 10-bit keys, 33%
		// lookups: a panel per series, a row per W, against W=16. RR-FA and
		// RR-XO are the strict and relaxed representatives, the no-scatter
		// ablation is RR-XO's (the paper highlights scatter's importance for
		// it), and RR-V is the variant the server runs. W goes past the
		// paper's 32 so the sweep can show a knee above it.
		for _, v := range []series{
			{"RR-FA", VariantSpec{Name: "RR-FA"}},
			{"RR-XO", VariantSpec{Name: "RR-XO"}},
			{"RR-XO/noscatter", VariantSpec{Name: "RR-XO", NoScatter: true}},
			{"RR-V", VariantSpec{Name: "RR-V"}},
		} {
			var ws []series
			for _, w := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
				spec := v.spec
				spec.Window = w
				ws = append(ws, series{fmt.Sprintf("W=%d", w), spec})
			}
			ps = append(ps, panel{v.label, FamilySingly,
				Workload{KeyBits: 10, LookupPct: 33, OpsPerThread: o.OpsPerThread}, "W=16", ws})
		}
	case 5:
		// Allocator impact on the doubly linked list: TMHP and RR-XO under
		// the local ("H-", Hoard-like) and shared ("J-", contended) arena
		// policies.
		grid(FamilyDoubly, "H-TMHP", []int{9}, []int{0, 98}, func(int) []series {
			return []series{
				{"H-TMHP", VariantSpec{Name: "TMHP", Policy: arena.PolicyLocal}},
				{"H-RR-XO", VariantSpec{Name: "RR-XO", Policy: arena.PolicyLocal}},
				{"J-TMHP", VariantSpec{Name: "TMHP", Policy: arena.PolicyShared}},
				{"J-RR-XO", VariantSpec{Name: "RR-XO", Policy: arena.PolicyShared}},
			}
		})
	case 6:
		// Internal BST: the six reservation schemes against single-
		// transaction HTM. The big panels add "HTM*", HTM under a
		// constrained effective capacity (112 tracked cells ≈ 7KB), modeling
		// the hyperthreading-halved, associativity-pressured TSX capacity
		// behind the paper's >4-thread serialization cliff.
		grid(FamilyInternalTree, "HTM", []int{8, o.TreeBits}, []int{0, 50, 80}, func(bits int) []series {
			out := named(append(RRNames(), "HTM")...)
			if bits > 8 {
				out = append(out, series{"HTM*", VariantSpec{Name: "HTM", Capacity: 112}})
			}
			return out
		})
	case 7:
		// External BST: the two best reservation schemes, HTM, TMHP and the
		// lock-free Natarajan-Mittal tree (which leaks). The paper omits the
		// weaker reservation schemes here; so do we.
		grid(FamilyExternalTree, "HTM", []int{o.TreeBits}, []int{0, 50, 80}, func(int) []series {
			return named("RR-XO", "RR-V", "HTM", "TMHP", "LFLeak")
		})
	case 8:
		// Not a paper figure: the reclamation behavior the paper describes
		// qualitatively ("this workload experiences the longest reclamation
		// delays for the hazard pointer and epoch-based reclamation
		// strategies", §5.1), measured as peak deferred nodes and
		// delete-to-free delay per scheme. Observed instances, so the
		// trailing columns carry sampled delay percentiles.
		grid(FamilySingly, "TMHP", []int{10}, []int{33, 80}, func(int) []series {
			out := named("RR-V", "RR-FA", "TMHP", "TMHE", "TMVBR", "ER", "LFHP", "LFLeak")
			for i := range out {
				out[i].spec.Observe = true
			}
			return out
		})
	default:
		return nil, fmt.Errorf("bench: no figure %d (the paper's data figures are 2-7; 8 is this repo's reclamation-delay study)", n)
	}
	return ps, nil
}
