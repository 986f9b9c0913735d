// Package bench is the measurement harness that regenerates the paper's
// evaluation (Figures 2–7) and the reclamation-delay study (8). Changes to
// the repository are gated elsewhere: benchmark/ and its aa.py.
//
// It owns three things:
//
//   - workload generation: key ranges, operation mixes and the 50% prefill
//     of §5.1 (Workload);
//   - the group runner: a panel's series, built and prefilled once per
//     thread count, take turns one tenth of the operations at a time and
//     are reported as ratios to the figure's baseline, tenth by tenth; each
//     ends with its balance check (measure, Result);
//   - Build: a VariantSpec (series name, window, ablation knobs) onto a
//     structure Family's row of the family table (internal/family), which
//     is where the families and the variants each takes — the paper's RR-V,
//     RR-XO, …, HTM, TMHP, REF, ER, LFLeak, LFHP plus the extended
//     reclamation matrix's TMHE and TMVBR (DESIGN.md §14) — are listed;
//     shared by cmd/benchfig, cmd/hohserver, benchmark/ and the tests.
//     Variants built with Observe expose their obs.Domain via ObsReporter.
//
// Each figure is data (figures.go): its panels, each a workload, the series
// it plots and the baseline they are reported against. Figure prints the
// TSV; `benchfig table` renders it as the markdown tables recorded in
// EXPERIMENTS.md.
package bench
