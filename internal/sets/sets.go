// Package sets defines the concurrent ordered-set abstraction shared by
// every data structure in this repository — the hand-over-hand
// transactional lists and trees, the single-transaction (HTM-baseline)
// variants, and the lock-free comparators — so the benchmark harness and
// the cross-implementation conformance tests can drive them uniformly.
package sets

import (
	"errors"
	"sort"

	"hohtx/internal/arena"
	"hohtx/internal/obs"
	"hohtx/internal/reclaim"
	"hohtx/internal/stm"
)

// Set is a concurrent set of uint64 keys. Keys must lie in [1, 1<<62);
// implementations reserve 0 and the topmost values for sentinels.
//
// Register must be called once per thread id before that thread's first
// operation; concurrent callers must use distinct tids in [0, threads).
// Finish must be called once per thread after its last operation (it
// flushes deferred reclamation so memory accounting converges).
type Set interface {
	Register(tid int)
	// Lookup reports whether key is present.
	Lookup(tid int, key uint64) bool
	// Insert adds key; it returns false if key was already present.
	Insert(tid int, key uint64) bool
	// Remove deletes key; it returns false if key was absent.
	Remove(tid int, key uint64) bool
	// Finish flushes the thread's deferred work (no-op for precise
	// reclamation variants).
	Finish(tid int)
	// Snapshot returns the current keys in ascending order. It is only
	// safe to call while no operations are in flight (tests and
	// benchmark verification).
	Snapshot() []uint64
	// Name is the variant's label in benchmark output (e.g. "RR-XO",
	// "HTM", "TMHP", "LFLeak").
	Name() string
	// Apply executes ops and returns one result per op, as if in order,
	// with the same meaning as the corresponding single-op method. Transactional
	// implementations run the whole batch inside ONE transaction — one
	// snapshot, one commit — so the batch is atomic (all-or-nothing, and
	// later ops observe earlier ops' effects via read-own-writes). A batch
	// whose footprint exceeds the transaction capacity falls back to
	// serial-mode execution; it still commits atomically, just without
	// speculation. Non-transactional baselines (package lockfree) and the
	// sharded facade execute per-op / per-shard and document the weaker
	// guarantee; see ApplyEach and serve.Sharded. The returned slice may
	// be the implementation's per-thread scratch: it is valid until tid's
	// next Apply.
	Apply(tid int, ops []Op) []Result
}

// ErrScanUnsupported is returned by the AscendN of a sharded facade
// (serve.Sharded) with a shard that is not an Ascender: the lists and the
// skiplist scan in every mode, and the trees, the hash table and the
// lock-free baselines are not Ascenders. Callers — the serve layer in
// particular — must treat it as a capability miss, not a crash.
var ErrScanUnsupported = errors.New("sets: scan unsupported by this variant")

// Ascender is implemented by sets that support windowed ascending
// iteration with the cursor position held as a revocable reservation.
//
// Ascend visits keys ≥ from in ascending order until fn returns false or
// the set is exhausted. The iteration is weakly consistent, in the style
// of sync.Map.Range: it does NOT freeze a snapshot. Keys present for the
// whole scan are delivered exactly once; keys inserted or removed
// concurrently may or may not be delivered; delivered keys are strictly
// ascending (so nothing is delivered twice). If a concurrent writer
// revokes the cursor's reservation, the cursor re-navigates from its last
// delivered key — position is durable by key, not by node.
//
// AscendN is Ascend for a caller that knows how many keys it wants: the
// scan is over after limit keys (limit <= 0 means no limit, which is what
// Ascend passes). What the caller could do itself by returning false from
// fn at its limit-th key, the scan can do cheaper when told beforehand: it
// reads nothing past that key and gives up its position in the transaction
// that found it.
//
// fn runs between the scan's transactions and must not operate on the set
// under the scan's own tid, whose position the scan is holding.
type Ascender interface {
	Ascend(tid int, from uint64, fn func(key uint64) bool) error
	AscendN(tid int, from uint64, limit int, fn func(key uint64) bool) error
}

// Passer is implemented by sets whose point operations can share one
// hand-over-hand pass (reclaim.Chassis.Pass): the singly linked list, the
// hash table, the skiplist and both trees. Pass runs ops with the meaning
// of the single-op methods, in arrival order per key, and returns one
// result per op. Unlike Apply's, the
// ops are not atomic together: each linearizes on its own, inside the call,
// which is all that pipelined point requests, which promise nothing across
// requests, need. The returned slice is the implementation's per-thread
// scratch: it is valid until tid's next Pass or Apply.
type Passer interface {
	Pass(tid int, ops []Op) []Result
}

// OpKind selects a batch operation; see reclaim.OpKind, where the chassis's
// one Apply driver needs it.
type OpKind = reclaim.OpKind

// The operation kinds.
const (
	OpLookup = reclaim.OpLookup
	OpInsert = reclaim.OpInsert
	OpRemove = reclaim.OpRemove
)

// Op is one operation of a batch.
type Op = reclaim.Op

// Result is one op's outcome, identical in meaning to the single-op
// methods' boolean return.
type Result = bool

// ApplyEach executes ops one at a time through the single-op methods. It
// is the non-atomic fallback for implementations without a batch
// transaction (the lock-free baselines): results are individually
// linearizable but the batch as a whole is not.
func ApplyEach(s Set, tid int, ops []Op) []Result {
	out := make([]Result, len(ops))
	for i, op := range ops {
		out[i] = Do(s, tid, op)
	}
	return out
}

// Do runs op through the single-op method of its kind.
func Do(s Set, tid int, op Op) Result {
	switch op.Kind {
	case OpInsert:
		return s.Insert(tid, op.Key)
	case OpRemove:
		return s.Remove(tid, op.Key)
	}
	return s.Lookup(tid, op.Key)
}

// MemoryReporter is implemented by variants whose node memory is
// observable (all arena-backed structures). LiveNodes counts allocated
// and not-yet-freed nodes, including any sentinels; DeferredNodes counts
// nodes logically deleted but not physically freed (zero for precise
// schemes, which is the paper's headline property).
type MemoryReporter interface {
	LiveNodes() uint64
	DeferredNodes() uint64
}

// The optional views below are what aggregating layers (serve.Sharded, the
// bench runner, hohtx.StatsOf) ask a Set for; every arena-backed
// transactional structure implements all of them.

// TMStatsReporter exposes the structure's STM runtime counters as one
// snapshot.
type TMStatsReporter interface {
	TMStats() stm.Stats
}

// ReclaimReporter exposes the reclamation scheme's counters.
type ReclaimReporter interface {
	ReclaimStats() reclaim.Stats
}

// BooksReporter exposes a structure's memory books (reclaim.Books) holding
// keys resident keys: the caller's count, a quiescent Snapshot's length.
type BooksReporter interface {
	Books(keys uint64) reclaim.Books
}

// BusyReporter exposes whether tid's transaction context is in use.
type BusyReporter interface {
	Busy(tid int) bool
}

// GuardReporter exposes the arena's use-after-free sanitizer counters.
type GuardReporter interface {
	GuardStats() arena.GuardStats
}

// ObsReporter exposes the structure's observability domain (nil when it
// was built detached).
type ObsReporter interface {
	ObsDomain() *obs.Domain
}

// KeysEqual reports whether got (already sorted) equals want (any order);
// it sorts a copy of want.
func KeysEqual(got, want []uint64) bool {
	if len(got) != len(want) {
		return false
	}
	w := append([]uint64(nil), want...)
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	for i := range got {
		if got[i] != w[i] {
			return false
		}
	}
	return true
}
