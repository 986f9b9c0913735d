package bench

import (
	"fmt"
	"io"

	"hohtx/internal/arena"
	"hohtx/internal/sets"
)

// Opts controls a figure regeneration run.
type Opts struct {
	// Quick shrinks per-thread op counts, trial counts, and the 21-bit
	// tree panels (to 14-bit) for a fast smoke run; the output notes the
	// substitution.
	Quick bool
	// Threads are the thread counts to sweep; default {1, 2, 4, 8}.
	Threads []int
	// Trials per cell; default 3 (the paper averages 5).
	Trials int
	// Seed for workload generation.
	Seed int64
	// OpsPerThread overrides the per-thread operation count (the paper
	// uses 1M; the default here is 200k, which preserves every
	// steady-state effect at a fraction of the wall time).
	OpsPerThread int
	// TreeBits overrides the big tree panels' key-range bits (the paper
	// uses 21; single-core hosts may prefer 16-18 to bound prefill time).
	TreeBits int
	// Out receives the TSV rows.
	Out io.Writer
}

func (o Opts) withDefaults() Opts {
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4, 8}
	}
	if o.Trials <= 0 {
		if o.Quick {
			o.Trials = 1
		} else {
			o.Trials = 3
		}
	}
	if o.Seed == 0 {
		o.Seed = 20170724 // SPAA'17's first day
	}
	return o
}

func (o Opts) ops(base int) int {
	if o.OpsPerThread > 0 {
		return o.OpsPerThread
	}
	if o.Quick {
		return base / 10
	}
	return base
}

func (o Opts) treeBits() int {
	if o.TreeBits > 0 {
		return o.TreeBits
	}
	if o.Quick {
		return 14
	}
	return 21
}

// header emits the TSV column header once per figure. The trailing four
// columns carry the reclamation-latency view: mean retire→free distance
// plus its sampled p50/p99/max (zero unless the cell ran observed).
func header(w io.Writer) {
	fmt.Fprintln(w, "figure\tpanel\tvariant\tthreads\twindow\tmops\trelstd\taborts_per_op\tserial_per_op\tpeak_deferred\tab_read\tab_valid\tab_wlock\tab_cap\tavg_delay\trec_p50\trec_p99\trec_max")
}

func emit(w io.Writer, fig, panel, variant string, window int, r Result) {
	fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%.4f\t%.3f\t%.4f\t%.5f\t%d\t%.4f\t%.4f\t%.4f\t%.4f\t%.1f\t%d\t%d\t%d\n",
		fig, panel, variant, r.Threads, window, r.MopsPerSec, r.RelStddev,
		r.AbortsPerOp, r.SerialPerOp, r.DeferredPeak,
		r.ReadConflictsPerOp, r.ValidationsPerOp, r.WriteLocksPerOp, r.CapacityPerOp,
		r.AvgDelayOps, r.ReclaimP50Ops, r.ReclaimP99Ops, r.ReclaimMaxOps)
}

// runCell measures one (family, spec, workload, threads) cell and emits it.
func runCell(o Opts, fig, panel string, f Family, spec VariantSpec, wl Workload, threads int, label string) error {
	w := spec.Window
	if w == 0 {
		w = BestWindow(f, threads)
		spec.Window = w
	}
	var buildErr error
	mk := MakeSet(func(t int) sets.Set {
		s, err := Build(f, spec, t)
		if err != nil {
			buildErr = err
			return nil
		}
		return s
	})
	// Probe the build once so unsupported combinations surface as errors
	// rather than mid-measurement panics.
	if probe := mk(threads); probe == nil {
		return buildErr
	}
	res, err := Run(mk, wl, RunConfig{Threads: threads, Trials: o.Trials, Seed: o.Seed})
	if err != nil {
		return err
	}
	if label == "" {
		label = spec.Name
	}
	emit(o.Out, fig, panel, label, w, res)
	return nil
}

// Figure regenerates one of the paper's figures (2–7), writing TSV series
// to o.Out. It returns an error if any cell fails its post-run invariant
// check.
func Figure(n int, o Opts) error {
	o = o.withDefaults()
	header(o.Out)
	switch n {
	case 2:
		return figure2(o)
	case 3:
		return figure3(o)
	case 4:
		return figure4(o)
	case 5:
		return figure5(o)
	case 6:
		return figure6(o)
	case 7:
		return figure7(o)
	case 8:
		return figureDelay(o)
	default:
		return fmt.Errorf("bench: no figure %d (the paper's data figures are 2-7; 8 is this repo's reclamation-delay study)", n)
	}
}

// figureDelay is experiment E1, not a paper figure: it quantifies the
// reclamation behavior the paper describes qualitatively ("this workload
// experiences the longest reclamation delays for the hazard pointer and
// epoch-based reclamation strategies", §5.1) — peak deferred nodes and
// mean delete-to-free delay in operations, per scheme, on the singly
// linked list. The extended-matrix schemes TMHE and TMVBR (DESIGN.md §14)
// join the sweep so their deferral profiles are measured against the
// 2017 baselines.
func figureDelay(o Opts) error {
	for _, look := range []int{33, 80} {
		panel := fmt.Sprintf("10bit/%d%%", look)
		wl := Workload{KeyBits: 10, LookupPct: look, OpsPerThread: o.ops(200_000)}
		for _, name := range []string{"RR-V", "RR-FA", "TMHP", "TMHE", "TMVBR", "ER", "LFHP", "LFLeak"} {
			for _, th := range o.Threads {
				// Observed cells: the trailing TSV columns get real sampled
				// reclamation-delay percentiles, not just the mean.
				spec := VariantSpec{Name: name, Observe: true}
				if err := runCell(o, "fig8", panel, FamilySingly, spec, wl, th, ""); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// figure2: singly linked list, {6,10}-bit keys x {0,33,80}% lookups. The
// lock-free series appear only in the 10-bit panels, as in the paper.
func figure2(o Opts) error {
	for _, bits := range []int{6, 10} {
		for _, look := range []int{0, 33, 80} {
			panel := fmt.Sprintf("%dbit/%d%%", bits, look)
			wl := Workload{KeyBits: bits, LookupPct: look, OpsPerThread: o.ops(200_000)}
			names := append(RRNames(), "HTM", "TMHP", "REF")
			if bits == 10 {
				names = append(names, "LFLeak", "LFHP")
			}
			for _, name := range names {
				for _, th := range o.Threads {
					if err := runCell(o, "fig2", panel, FamilySingly, VariantSpec{Name: name}, wl, th, ""); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// figure3: doubly linked list, same grid minus REF and lock-free.
func figure3(o Opts) error {
	for _, bits := range []int{6, 10} {
		for _, look := range []int{0, 33, 80} {
			panel := fmt.Sprintf("%dbit/%d%%", bits, look)
			wl := Workload{KeyBits: bits, LookupPct: look, OpsPerThread: o.ops(200_000)}
			for _, name := range append(RRNames(), "HTM", "TMHP") {
				for _, th := range o.Threads {
					if err := runCell(o, "fig3", panel, FamilyDoubly, VariantSpec{Name: name}, wl, th, ""); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// figure4: window-size impact on the singly linked list, 10-bit keys, 33%
// lookups; RR-FA and RR-XO as the strict/relaxed representatives, the
// no-scatter ablation for RR-XO (the paper highlights scatter's importance
// for RR-XO), and RR-V, the variant the server runs. W goes past the
// paper's 32 so the sweep can show a knee above it.
func figure4(o Opts) error {
	wl := Workload{KeyBits: 10, LookupPct: 33, OpsPerThread: o.ops(200_000)}
	for _, w := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		panel := fmt.Sprintf("W=%d", w)
		for _, th := range o.Threads {
			for _, c := range []struct {
				spec  VariantSpec
				label string
			}{
				{VariantSpec{Name: "RR-FA", Window: w}, ""},
				{VariantSpec{Name: "RR-XO", Window: w}, ""},
				{VariantSpec{Name: "RR-XO", Window: w, NoScatter: true}, "RR-XO/noscatter"},
				{VariantSpec{Name: "RR-V", Window: w}, ""},
			} {
				if err := runCell(o, "fig4", panel, FamilySingly, c.spec, wl, th, c.label); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// figure5: allocator impact on the doubly linked list, 9-bit keys, {0,98}%
// lookups; TMHP vs RR-XO under the local ("H-", Hoard-like) and shared
// ("J-", contended) arena policies.
func figure5(o Opts) error {
	for _, look := range []int{0, 98} {
		panel := fmt.Sprintf("9bit/%d%%", look)
		wl := Workload{KeyBits: 9, LookupPct: look, OpsPerThread: o.ops(200_000)}
		for _, pol := range []arena.Policy{arena.PolicyLocal, arena.PolicyShared} {
			prefix := "H-"
			if pol == arena.PolicyShared {
				prefix = "J-"
			}
			for _, name := range []string{"TMHP", "RR-XO"} {
				for _, th := range o.Threads {
					if err := runCell(o, "fig5", panel, FamilyDoubly,
						VariantSpec{Name: name, Policy: pol}, wl, th, prefix+name); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// figure6: internal BST, {8,21}-bit keys x {0,50,80}% lookups; the six
// reservation schemes against single-transaction HTM. In quick mode the
// 21-bit panels shrink to 14-bit (noted in the panel label). The 21-bit
// panels additionally run "HTM*", the HTM baseline under a constrained
// effective capacity (112 tracked cells ≈ 7KB), modeling the
// hyperthreading-halved, associativity-pressured TSX capacity that causes
// the paper's >4-thread serialization cliff; see EXPERIMENTS.md.
func figure6(o Opts) error {
	for _, bits := range []int{8, o.treeBits()} {
		for _, look := range []int{0, 50, 80} {
			panel := fmt.Sprintf("%dbit/%d%%", bits, look)
			wl := Workload{KeyBits: bits, LookupPct: look, OpsPerThread: o.ops(200_000)}
			for _, name := range append(RRNames(), "HTM") {
				for _, th := range o.Threads {
					if err := runCell(o, "fig6", panel, FamilyInternalTree, VariantSpec{Name: name}, wl, th, ""); err != nil {
						return err
					}
				}
			}
			if bits > 8 {
				for _, th := range o.Threads {
					if err := runCell(o, "fig6", panel, FamilyInternalTree,
						VariantSpec{Name: "HTM", Capacity: 112}, wl, th, "HTM*"); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// figure7: external BST, 21-bit keys x {0,50,80}% lookups; the two best
// reservation schemes, HTM, TMHP and the lock-free Natarajan-Mittal tree
// (which leaks). The paper omits the weaker reservation schemes here; so
// do we.
func figure7(o Opts) error {
	bits := o.treeBits()
	for _, look := range []int{0, 50, 80} {
		panel := fmt.Sprintf("%dbit/%d%%", bits, look)
		wl := Workload{KeyBits: bits, LookupPct: look, OpsPerThread: o.ops(200_000)}
		for _, name := range []string{"RR-XO", "RR-V", "HTM", "TMHP", "LFLeak"} {
			for _, th := range o.Threads {
				if err := runCell(o, "fig7", panel, FamilyExternalTree, VariantSpec{Name: name}, wl, th, ""); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
