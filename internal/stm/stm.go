// Package stm implements the word-based software transactional memory that
// serves as this repository's substrate for hand-over-hand transactions and
// revocable reservations.
//
// The design follows TL2 (Dice, Shalev, Shavit, DISC 2006): every
// transactional cell carries its own version lock, a global version clock
// orders commits, reads are validated against the transaction's read
// version as they happen (giving opacity), and writes are buffered and
// applied at commit under per-cell locks. Two departures from classic TL2:
//
//   - Read-version extension (as in TinySTM): a read that observes a cell
//     newer than the transaction's snapshot revalidates the read set against
//     the current clock and, if the snapshot is still consistent, advances
//     it instead of aborting. This markedly reduces false aborts in the
//     lookup-heavy workloads of the paper's evaluation.
//
//   - An HTM simulation profile. The paper evaluates on Intel TSX through
//     GCC's language-level TM, which (a) bounds transactional state by the
//     L1 cache and (b) falls back to a global serial mode after a fixed
//     number of speculative failures. Profile.Capacity models (a) as a limit
//     on read-set plus write-set entries; Profile.MaxAttempts models (b);
//     the serial fallback runs under an exclusive lock that blocks all
//     concurrent commits, reproducing the program-wide serialization the
//     paper observes when tree transactions exceed hardware capacity (§5.4).
//
// The TM provides a total order on transactions and opaque reads, which is
// exactly the system model the paper's correctness arguments assume (§3,
// "System Model"). Strong isolation is not provided and not required.
//
// A hand-over-hand operation is many small transactions on one thread, so
// the loop that runs them lives here: Runtime.Chain runs a closure as
// successive window transactions in the context (Tx) its tid owns, and
// publishes the chain's commit counts once, at its end (DESIGN.md §7,
// "Transaction contexts and chains"). Atomic is a chain of one.
//
// All cells must be used with a single Runtime; a cell's version words are
// meaningful only relative to the clock of the Runtime whose transactions
// access it.
package stm

import (
	"sync"
	"sync/atomic"

	"hohtx/internal/obs"
	"hohtx/internal/pad"
)

// AbortCause classifies why a speculative transaction attempt failed.
// Exposing abort causes to the data structure is the capability the paper
// names as future work ("GCC TM does not expose the fact of an abort, or
// its cause, to the programmer", §5.2); this repository counts aborts by
// cause (Stats.Aborts) and reports them in the figures' abort breakdown.
type AbortCause uint8

const (
	// CauseNone means the attempt did not abort.
	CauseNone AbortCause = iota
	// CauseReadConflict: a read observed a cell that is locked or newer
	// than the snapshot and the snapshot could not be extended.
	CauseReadConflict
	// CauseValidation: commit-time read-set validation failed.
	CauseValidation
	// CauseWriteLock: commit could not acquire a write lock.
	CauseWriteLock
	// CauseCapacity: the transaction exceeded the profile's capacity limit
	// (the HTM-simulation analog of an L1 overflow).
	CauseCapacity
	// CauseExplicit: user code called Tx.Restart.
	CauseExplicit

	numCauses
)

// String returns the short human-readable name of the cause.
func (c AbortCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseReadConflict:
		return "read-conflict"
	case CauseValidation:
		return "validation"
	case CauseWriteLock:
		return "write-lock"
	case CauseCapacity:
		return "capacity"
	case CauseExplicit:
		return "explicit"
	default:
		return "unknown"
	}
}

// Profile configures the speculation policy of a Runtime. The zero value
// means "pure STM": unlimited capacity and practically unlimited speculative
// attempts before serializing.
type Profile struct {
	// Capacity bounds len(readSet)+len(writeSet) per transaction. Zero
	// means unlimited. A transaction that exceeds the bound aborts with
	// CauseCapacity and immediately falls back to serial mode (retrying a
	// deterministic overflow is pointless, which matches how GCC's HTM
	// fallback treats capacity aborts).
	Capacity int
	// MaxAttempts is the number of speculative attempts before the
	// transaction falls back to the global serial lock. Zero means a
	// large default (64). The paper's GCC setup uses 2 for the list
	// experiments and 8 for the trees.
	MaxAttempts int
}

// HTMProfile returns the profile used to model the paper's hardware TM:
// capacity-limited speculation with fallback to serial mode after attempts
// failures (the paper uses 2 for lists, 8 for trees).
func HTMProfile(attempts int) Profile {
	return Profile{Capacity: 448, MaxAttempts: attempts}
}

// Runtime owns the global version clock, the serial-fallback lock and the
// abort statistics for one transactional domain. Data structures create one
// Runtime each so that benchmarks of different structures do not share
// clocks or serial locks.
type Runtime struct {
	// clock is the global version clock (TL2's GV1): even, advanced by 2
	// per writing commit, whose write version is the result. It bounds
	// every snapshot: a cell version is at most the clock, always.
	clock atomic.Uint64
	_     pad.Line
	prof  Profile
	// commitLock orders serial-mode transactions against speculative
	// commits: speculative writers commit under its distributed reader
	// side (one padded slot per transaction in the common case), serial
	// transactions run entirely under its exclusive side. Speculative
	// reads take no lock; they are protected by version validation alone.
	commitLock bravoLock
	// ctxs holds the transaction context each tid owns, indexed by tid
	// (nil where a tid has not run yet); each publishes into a counter
	// block of its own. The table is immutable once published: context
	// adds a tid by publishing a copy, under ctxMu.
	ctxs  atomic.Pointer[[]*Tx]
	ctxMu sync.Mutex
	// txPool serves the callers that own no context — tid -1, and a tid
	// whose context is busy (a transaction nested inside another's fn or
	// hooks) — and fallback is the counter block they share.
	txPool   sync.Pool
	_        pad.Line
	fallback statBlock
	_        pad.Line
	// obs, when non-nil, receives sampled latency/lifecycle observations
	// (see obs.go). Nil keeps the hot path at one pointer check.
	obs *obs.TxProbe
}

// NewRuntime returns a Runtime with the given speculation profile.
func NewRuntime(p Profile) *Runtime {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 64
	}
	rt := &Runtime{prof: p}
	rt.commitLock.arm()
	rt.txPool.New = func() any { return newTx(rt, -1, &rt.fallback) }
	return rt
}

// Profile reports the runtime's speculation profile.
func (rt *Runtime) Profile() Profile { return rt.prof }

// now returns the current (even) value of the version clock.
func (rt *Runtime) now() uint64 { return rt.clock.Load() }

// VersionFence returns an even version v with two properties: every write
// version whose commit write-back has completed is <= v, and every write
// version chosen after VersionFence returns is > v. Reclamation code
// retires a freed node's cell versions to a fence (stm.Word.Retire) so that
// transactions still holding pre-free snapshots cannot take fresh reads of
// the dead cells at stale versions.
func (rt *Runtime) VersionFence() uint64 { return rt.clock.Load() }

// TickVersionFence advances the clock, as a writing commit does, so that
// the next VersionFence result is strictly greater than every fence
// observed before the call. Version-based reclamation (reclaim.VBR) uses
// the fence as its reclamation epoch: a retiree stamped with fence f is
// freeable once the fence has moved past f, and under workloads whose
// commits do not advance the clock on their own (read-only ones) the
// scheme ticks the fence itself to bound deferral.
func (rt *Runtime) TickVersionFence() { rt.clock.Add(2) }

// acquire returns the context a chain on tid runs in: the one tid owns, or
// a pooled one when tid is -1 or its own is busy. The owner contract is
// Local's: one goroutine drives a tid at a time, and handing the tid on
// needs a happens-before edge, as a lease pool's release/acquire provides.
func (rt *Runtime) acquire(tid int) *Tx {
	if tid >= 0 {
		if tx := rt.context(tid); !tx.busy {
			tx.busy = true
			return tx
		}
	}
	tx := rt.txPool.Get().(*Tx)
	tx.tid = int32(tid)
	return tx
}

// context returns the context tid owns. The tid's first transaction creates
// it, and the counter block it publishes into: two allocations of four and
// six cache lines, sizes the allocator hands out 64-byte aligned
// (TestTxLayout).
func (rt *Runtime) context(tid int) *Tx {
	if t := rt.ctxs.Load(); t != nil && tid < len(*t) && (*t)[tid] != nil {
		return (*t)[tid]
	}
	rt.ctxMu.Lock()
	defer rt.ctxMu.Unlock()
	var old []*Tx
	if t := rt.ctxs.Load(); t != nil {
		old = *t
	}
	t := make([]*Tx, max(len(old), tid+1))
	copy(t, old)
	t[tid] = newTx(rt, tid, new(statBlock))
	rt.ctxs.Store(&t)
	return t[tid]
}

// Busy reports whether tid's own context is in use: a chain runs on it or
// has not yet published its counts. Read it where tid is handed on (Local's
// owner contract), as after a lease pool closes.
func (rt *Runtime) Busy(tid int) bool {
	t := rt.ctxs.Load()
	return t != nil && tid < len(*t) && (*t)[tid] != nil && (*t)[tid].busy
}

// release publishes the chain's counts and gives the context back.
func (rt *Runtime) release(tx *Tx) {
	tx.flush()
	if tx.busy {
		tx.busy = false
	} else {
		rt.txPool.Put(tx)
	}
}
