// Package obs is the repository's zero-dependency observability layer:
// log₂-bucket latency histograms, a sampled per-thread flight recorder of
// transaction lifecycle events with who-aborted-whom attribution, request
// spans with a slowlog and hot-key sketches behind them, gauge
// registration, and an export surface (JSON snapshots, Prometheus text
// format, pprof) served by Registry + Serve.
//
// The paper's claims are about distributions, not totals — how long a
// removed node waits to be freed, where aborts cluster — so the aggregate
// counters in stm.Stats and reclaim.Stats are not enough. Everything here
// is compiled in unconditionally but sampling-gated: with no Domain
// attached the cost at an instrumented site is one nil check, and with a
// Domain attached but sampling disabled it is one load and one branch per
// event (see Domain.Sampled and the before/after microbenchmark in
// internal/stm).
//
// A Domain is the export unit: a name, the gate, histograms, gauges, the
// per-tid span table, the server's slowlog and hot-key sinks. Two probes
// record into one. TxProbe is the one structure-level instrument — the stm
// runtime, the arena and the reclamation scheme of a structure share it,
// and it owns the flight recorder and the attribution table, so a domain
// that observes no transactions carries neither. ServeProbe is
// internal/serve's: per-verb service times and the batch and scan series.
// A histogram whose name someone outside the package refers to by symbol
// has a constant (HistCommitNs, HistReclaimOps, HistLeaseWaitNs, …); every
// instrument here has a reader (a test, a CI leg, a benchmark metric or an
// EXPERIMENTS.md recipe), and CI's "Every instrument has a reader" leg
// keeps it so.
//
// The package deliberately depends only on the standard library and
// internal/pad, so every runtime package (stm, arena, core, reclaim,
// serve) can import it without cycles.
package obs
