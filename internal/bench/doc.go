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
//   - the variant registry: Build maps the series names — the paper's
//     (RR-V, RR-XO, …, HTM, TMHP, REF, ER, LFLeak, LFHP) plus the extended
//     reclamation matrix's TMHE and TMVBR (DESIGN.md §14) — times a
//     structure Family to a ready-to-run sets.Set — the single spelling of
//     that mapping, shared by cmd/benchfig, cmd/hohserver, benchmark/ and
//     the tests. Variants built with Observe expose their obs.Domain via
//     ObsReporter.
//
// The per-figure drivers (figures.go) print the TSV series each paper
// figure plots; `benchfig table` renders them as the markdown tables
// recorded in EXPERIMENTS.md.
package bench
