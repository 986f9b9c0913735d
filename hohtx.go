// Package hohtx is the public API of this repository: concurrent ordered
// sets built from hand-over-hand transactions with revocable reservations,
// as introduced in "Hand-Over-Hand Transactions with Precise Memory
// Reclamation" (Zhou, Luchangco, Spear; SPAA 2017).
//
// # What you get
//
// Sets over uint64 keys — singly and doubly linked lists, internal and
// external unbalanced binary search trees, a hash set and a skiplist — and
// an OrderedMap over the external tree, all of which split long traversals
// into small transactions linked by *revocable reservations*. Removals
// reclaim node memory the instant the removing operation commits (precise
// reclamation): there is no grace period, no retire list, and the library
// can prove it (LiveNodes tracks allocation exactly).
//
// # Quick start
//
//	set := hohtx.NewListSet(hohtx.Config{Threads: 8})
//	set.Register(workerID)              // once per worker
//	set.Insert(workerID, 42)
//	ok := set.Lookup(workerID, 42)      // true
//	set.Remove(workerID, 42)            // node memory is free on return
//
// Each concurrent worker must use a distinct id in [0, Threads). Keys must
// be ≥ 1 and at most MaxKey.
//
// # More goroutines than worker ids
//
// Programs that cannot pin one goroutine per worker id — servers, worker
// fleets, anything with dynamic concurrency — lease ids from a pool
// instead of owning them:
//
//	pool := hohtx.NewLeasePool(set, hohtx.LeaseConfig{Slots: 8})
//	// from any number of goroutines:
//	pool.Do(ctx, func(tid int) { set.Insert(tid, 42) })
//	pool.Close() // waits for leases, flushes every worker id
//
// The pool handles Register/Finish, queues fairly under contention, and
// exposes backpressure statistics; cmd/hohserver builds a TCP front end
// on it. See the internal/serve package and DESIGN.md §9.
//
// # Choosing a reservation scheme
//
// The six schemes trade Revoke cost against Get precision (§3 of the
// paper). The relaxed schemes (XO, SO, V) revoke in O(1) and win nearly
// every benchmark; RRVersioned (RR-V) additionally lets any number of
// threads reserve the same node and is the best default together with
// RRExclusive. The strict schemes (FA, DM, SA) never spuriously lose a
// reservation, which makes one extra optimization sound in the doubly
// linked list, but their Revoke visits every thread.
package hohtx

import (
	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/family"
	"hohtx/internal/list"
	"hohtx/internal/reclaim"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
	"hohtx/internal/tree"
)

// Set is a concurrent ordered set of uint64 keys; see the package comment
// for the threading contract.
type Set = sets.Set

// MemoryReporter is implemented by every Set in this package: LiveNodes
// is the exact count of allocated nodes, DeferredNodes the count of
// logically-deleted-but-unreclaimed ones (always 0 for the reservation
// mechanisms — that is the paper's point).
type MemoryReporter = sets.MemoryReporter

// Op is one operation of a batch passed to Set.Apply; a batch executes as
// a single transaction (one snapshot, one commit) on every Set this
// package constructs, making it atomic and roughly amortizing the commit
// cost across the ops. Batches whose read/write footprint exceeds the
// transaction capacity still commit atomically, via the serial fallback.
// On a ShardedSet, atomicity narrows to per-shard (see ShardedSet).
type Op = sets.Op

// OpKind selects a batch operation.
type OpKind = sets.OpKind

// Batch op kinds, mirroring the single-op methods.
const (
	OpLookup = sets.OpLookup
	OpInsert = sets.OpInsert
	OpRemove = sets.OpRemove
)

// MaxKey is the largest usable key (the trees reserve the top values for
// sentinels; the lists accept more but a uniform bound keeps code
// portable across structures).
const MaxKey = tree.MaxKey

// Reservation selects one of the paper's six revocable reservation
// implementations.
type Reservation int

const (
	// RRVersioned is RR-V: relaxed, O(1) revoke, unlimited concurrent
	// holders per node. The recommended default.
	RRVersioned Reservation = iota
	// RRExclusive is RR-XO: relaxed, O(1) revoke, one holder per hash
	// slot.
	RRExclusive
	// RRSharedOwner is RR-SO: relaxed, O(A) revoke, up to A holders.
	RRSharedOwner
	// RRFullyAssoc is RR-FA: strict, O(threads) revoke.
	RRFullyAssoc
	// RRDirectMapped is RR-DM: strict, revoke scans one hash bucket.
	RRDirectMapped
	// RRSetAssoc is RR-SA: strict, revoke scans one bucket in each of A
	// arrays.
	RRSetAssoc
)

// reservationKinds maps the public enum to the internal kind table,
// indexed by Reservation.
var reservationKinds = [...]core.Kind{
	RRVersioned:    core.KindV,
	RRExclusive:    core.KindXO,
	RRSharedOwner:  core.KindSO,
	RRFullyAssoc:   core.KindFA,
	RRDirectMapped: core.KindDM,
	RRSetAssoc:     core.KindSA,
}

// kind returns r's internal kind; a value outside the enum builds RR-V.
func (r Reservation) kind() core.Kind {
	if uint(r) < uint(len(reservationKinds)) {
		return reservationKinds[r]
	}
	return core.KindV
}

// String returns the paper's name for the scheme.
func (r Reservation) String() string { return r.kind().String() }

// Config tunes a set. The zero value is usable: 8 threads, RR-V
// reservations, the structure's tuned window at that thread count (8 for
// the lists, 16 for the trees and the skiplist), scatter enabled.
type Config struct {
	// Threads is the number of distinct worker ids that will call into
	// the set concurrently.
	Threads int
	// Reservation selects the revocable reservation scheme.
	Reservation Reservation
	// Window is W, the maximum node visits per transaction. Smaller
	// windows abort less under contention, larger ones commit less
	// often. Zero picks the structure's tuned window at Threads, the value
	// the benchmark harness and cmd/hohserver use: for the lists and the
	// hash set 64 up to 4 threads and 8 beyond (measured on a 2-CPU host;
	// the paper's is 16 up to 4 threads, §5.2), for the trees, the ordered
	// map and the skiplist 32 up to 2 threads and 16 beyond.
	Window int
	// NoScatter disables randomizing the first window's length. Leave
	// scattering on unless you are reproducing the paper's ablation.
	NoScatter bool
	// SharedPool routes all node allocation through one contended pool
	// (the paper's "jemalloc-pathology" configuration, Figure 5) instead
	// of per-thread magazines. Only useful for experiments.
	SharedPool bool
	// SerialAfter is the number of failed speculative attempts before an
	// operation's transaction falls back to serial mode, in which it runs
	// alone and cannot fail. Serial mode is the write side of a
	// distributed reader-bias lock: a speculative commit claims a slot on
	// a cache line of its own rather than a shared reader count, and only
	// a serial transaction makes committers wait (DESIGN.md §7, "Scalable
	// commit path"). Zero uses the paper's settings (2 for lists, 8 for
	// trees).
	SerialAfter int
}

// internal translates the public Config to the one row's structure takes.
// The defaults are the structure's own (the list or the tree setting), but
// for the window: the row's tuned value at the thread count.
func (c Config) internal(row *family.Row) reclaim.Config {
	out := reclaim.Config{
		Mode:    reclaim.ModeRR,
		RRKind:  c.Reservation.kind(),
		Threads: c.Threads,
		Window:  core.Window{W: c.Window, NoScatter: c.NoScatter},
	}
	if c.SharedPool {
		out.ArenaPolicy = arena.PolicyShared
	}
	if c.SerialAfter > 0 {
		out.Profile = stm.HTMProfile(c.SerialAfter)
	}
	out = out.WithDefaults(row.Attempts, 0)
	if out.Window.W == 0 {
		out.Window.W = row.Window(out.Threads)
	}
	return out
}

// rowOf returns the named family's row of the family table, the one place
// the repository's structures are listed.
func rowOf(name string) *family.Row {
	row, err := family.ByName(name)
	if err != nil {
		panic(err) // the names below are the table's own constants
	}
	return row
}

// build constructs the named family's structure from its row.
func build(name string, cfg Config) Set {
	row := rowOf(name)
	return row.New(cfg.internal(row))
}

// NewListSet returns a singly linked list set (best for small key ranges
// and teaching; O(n) operations).
func NewListSet(cfg Config) Set { return build(family.Singly, cfg) }

// NewDoublyListSet returns a doubly linked list set; removals unlink in a
// second, smaller transaction (§4.2), which reduces conflicts under
// write-heavy loads.
func NewDoublyListSet(cfg Config) Set { return build(family.Doubly, cfg) }

// NewInternalTreeSet returns an unbalanced internal BST set (§4.3).
func NewInternalTreeSet(cfg Config) Set { return build(family.ITree, cfg) }

// NewExternalTreeSet returns an unbalanced external BST set; keys live in
// leaves, making removals structurally simple (no successor swaps).
func NewExternalTreeSet(cfg Config) Set { return build(family.ETree, cfg) }

// NewHashSet returns a hash set of bucketed hand-over-hand chains — the
// structure the paper's conclusion proposes as the next application of
// revocable reservations. buckets is rounded up to a power of two; size it
// for a small expected load factor (e.g. expected keys / 4). (The family
// table's hash row is this constructor at the harnesses' bucket count.)
func NewHashSet(cfg Config, buckets int) Set {
	return list.NewHashTable(cfg.internal(rowOf(family.Hash)), max(buckets, 1))
}

// NewSkipListSet returns a skiplist set — the probabilistically balanced
// answer to the paper's "balanced trees" future-work item: O(log n)
// expected operations, one Revoke per removal regardless of node height,
// and precise reclamation throughout.
func NewSkipListSet(cfg Config) Set { return build(family.Skip, cfg) }

// Ascender is implemented by sets that support ordered iteration
// (currently NewListSet, NewDoublyListSet, NewSkipListSet, and
// NewShardedSet over those; the hash set has no global order to
// iterate). Ascend calls fn for each key >= from in ascending order until
// fn returns false; the traversal is hand-over-hand (the iterator's
// position is itself a revocable reservation) and weakly consistent: keys
// present for the whole scan appear exactly once, in strictly ascending
// order, and concurrent removals still reclaim immediately. AscendN is
// Ascend told beforehand how many keys are wanted: it reads nothing past
// the last of them. The lists and the skiplist scan under every mode; the
// trees and the lock-free baselines never (they are not Ascenders).
type Ascender = sets.Ascender

// ErrScanUnsupported is returned by a sharded set's Ascend when a shard is
// not an Ascender; the serve layer answers "ERR scan unsupported" instead.
var ErrScanUnsupported = sets.ErrScanUnsupported

// OrderedMap is an ordered uint64→uint64 map over the external
// hand-over-hand tree with precise reclamation; see NewOrderedMap.
type OrderedMap = tree.Map

// NewOrderedMap constructs an ordered map. It accepts the same Config as
// the sets (window, reservation scheme, allocator policy), with the
// external tree's defaults.
func NewOrderedMap(cfg Config) *OrderedMap {
	return tree.NewMap(cfg.internal(rowOf(family.ETree)))
}

// TxStats summarizes a set's transactional behavior.
type TxStats struct {
	Commits uint64 // committed transactions
	Aborts  uint64 // aborted speculative attempts
	Serial  uint64 // commits that needed the serial fallback

	// WriteCommits is the part of Commits that wrote a shared cell, and so
	// took commit-time locks and advanced the global clock. The rest
	// committed read-only (every non-terminal RR-V window, every lookup):
	// see ReadOnlyCommits.
	WriteCommits uint64

	// Per-cause abort breakdown (sums to Aborts together with the
	// explicit-restart aborts not listed here).
	ReadConflicts  uint64 // reads that hit a newer/locked cell and could not extend
	Validations    uint64 // commit-time read-set validation failures
	WriteLocks     uint64 // commit-time write-lock acquisition failures
	CapacityAborts uint64 // simulated-HTM footprint overflows

	// Commit-path traffic: serial writers that revoked the distributed
	// lock's reader bias, and their spin-waits on commit slots. See
	// DESIGN.md ("Scalable commit path").
	BiasRevocations uint64
	WriterWaits     uint64
}

// ReadOnlyCommits is the number of commits that wrote no shared cell.
func (s TxStats) ReadOnlyCommits() uint64 { return s.Commits - s.WriteCommits }

// LeasePool multiplexes any number of goroutines onto a set's fixed
// worker ids: Acquire/Release (or the Do one-liner) lease ids with FIFO
// queueing, bounded waiting and per-Handle slot affinity, and the pool
// owns the Register/Finish lifecycle. See the internal/serve package
// documentation for the full semantics.
type LeasePool = serve.Pool

// LeaseHandle is a pool client with slot affinity; one per goroutine.
type LeaseHandle = serve.Handle

// LeaseConfig parameterizes NewLeasePool. Slots must equal the set's
// Config.Threads.
type LeaseConfig = serve.PoolConfig

// LeaseStats is the pool's backpressure counters.
type LeaseStats = serve.PoolStats

// Lease-pool failure modes, re-exported for errors.Is checks.
var (
	ErrLeaseSaturated = serve.ErrSaturated
	ErrLeaseClosed    = serve.ErrClosed
)

// NewLeasePool builds a worker-slot lease pool over a set constructed
// with cfg.Slots threads. The pool registers every worker id, so callers
// never call Register or Finish themselves; Close flushes all slots.
func NewLeasePool(s Set, cfg LeaseConfig) *LeasePool { return serve.NewPool(s, cfg) }

// ShardedSet hash-partitions keys across N fully independent Set
// instances — each with its own transactional runtime (global version
// clock, serial-fallback lock), allocator, and reclamation — behind the
// ordinary Set interface. Writes to different shards never contend on a
// shared cache line, so sharding scales the write path past the
// single-clock serialization a lone instance tops out at, while every
// per-instance property (opacity, precise reclamation, exact LiveNodes)
// holds per shard and the reported aggregates are exact sums. Snapshot
// merges the shards in ascending key order; Register and Finish fan out
// to every shard, so a worker id (or a LeasePool over the facade) works
// exactly as on a single instance. cmd/hohserver's -shards flag serves
// one of these.
type ShardedSet = serve.Sharded

// NewShardedSet builds a ShardedSet from shards instances produced by the
// build callback — typically closing over this package's constructors:
//
//	set := hohtx.NewShardedSet(4, func(int) hohtx.Set {
//	    return hohtx.NewListSet(hohtx.Config{Threads: 8})
//	})
//
// Every shard must be configured with the same thread count. The shard
// index is passed to build for instrumentation (e.g. naming per-shard
// observability domains); the returned sets must be freshly constructed
// and unshared.
func NewShardedSet(shards int, build func(shard int) Set) *ShardedSet {
	if shards < 1 {
		shards = 1
	}
	parts := make([]Set, shards)
	for i := range parts {
		parts[i] = build(i)
	}
	return serve.NewSharded(parts)
}

// StatsOf extracts transaction statistics from any Set built by this
// package (zero value for foreign implementations).
func StatsOf(s Set) TxStats {
	var out TxStats
	if r, ok := s.(sets.TMStatsReporter); ok {
		// One snapshot, so Commits and WriteCommits (and the abort
		// breakdown against its total) reconcile under load.
		st := r.TMStats()
		out.Commits, out.WriteCommits = st.Commits, st.WriteCommits
		out.Aborts, out.Serial = st.TotalAborts(), st.SerialCommits
		out.ReadConflicts = st.Aborts[stm.CauseReadConflict]
		out.Validations = st.Aborts[stm.CauseValidation]
		out.WriteLocks = st.Aborts[stm.CauseWriteLock]
		out.CapacityAborts = st.Aborts[stm.CauseCapacity]
		out.BiasRevocations = st.BiasRevocations
		out.WriterWaits = st.WriterWaits
	}
	return out
}
