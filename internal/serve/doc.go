// Package serve is the serving layer: it turns the in-process,
// fixed-thread-id sets of this repository into something a network server
// (or any program with more goroutines than worker slots) can use safely.
//
// The rigid contract everywhere else in the repo — "each concurrent worker
// must use a distinct id in [0, Threads)" — is exactly right for the
// paper's benchmarks, where the harness owns its goroutines, and exactly
// wrong for a server, where goroutines come and go with connections. The
// Pool in this package closes that gap: it treats the Threads worker ids
// as a fixed set of leasable slots and multiplexes any number of
// goroutines onto them with
//
//   - per-handle slot affinity (a connection that re-leases tends to get
//     its previous slot back, so per-slot allocator magazines and
//     reservation state stay warm),
//   - a bounded FIFO wait queue with context cancellation (backpressure
//     is explicit: beyond the bound, Acquire fails fast with
//     ErrSaturated), and
//   - lease/wait/backpressure statistics, exported through an optional
//     obs.Domain (lease_wait_ns histogram plus gauges).
//
// Server speaks a minimal pipelined text protocol (GET/SET/DEL, MULTI
// batches, ASCEND scans, LEN/INFO/SLOWLOG; one line per request) over any
// sets.Set, leasing a slot per burst of buffered requests so an idle
// connection holds no slot. Every request line runs through one pipeline
// (conn.go: verb table → shard plan → lease-and-span bracket → execute →
// render). cmd/hohserver wraps it in a binary; cmd/hohload is the matching
// load generator. See DESIGN.md §9 for the protocol grammar, the
// pipeline's contract table and the backpressure semantics.
//
// Sharded lifts the single-instance bottleneck: every TL2-style set
// serializes writers through one global version clock, so one instance
// caps write throughput no matter how shard-friendly the key mix is.
// ShardOf hash-partitions keys across N fully independent instances (each
// with its own clock, serial-fallback lock, arena, and — behind Server —
// its own lease pool), the facade re-implements sets.Set by routing, and
// LEN/INFO aggregate. The facade and the server lay multi-key requests
// over the shards with the same plan (plan.go). See DESIGN.md §10.
package serve
