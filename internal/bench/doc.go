// Package bench is the measurement harness that regenerates the paper's
// evaluation (Figures 2–7). Changes to the repository are gated elsewhere:
// benchmark/ and its aa.py.
//
// It owns three things:
//
//   - workload generation: key ranges, operation mixes and the 50% prefill
//     of §5.1 (Workload);
//   - the timed runner: trials, warmup, post-run invariant checks and the
//     memory-book reconciliation every run ends with (Run, Result);
//   - Build: a VariantSpec (series name, window, ablation knobs) onto a
//     structure Family's row of the family table (internal/family), which
//     is where the families and the variants each takes — the paper's RR-V,
//     RR-XO, …, HTM, TMHP, REF, ER, LFLeak, LFHP plus the extended
//     reclamation matrix's TMHE and TMVBR (DESIGN.md §14) — are listed;
//     shared by cmd/benchfig, cmd/hohserver, benchmark/ and the tests.
//     Variants built with Observe expose their obs.Domain via ObsReporter.
//
// The per-figure drivers (figures.go) print the TSV series each paper
// figure plots; `benchfig table` renders them as the markdown tables
// recorded in EXPERIMENTS.md.
package bench
