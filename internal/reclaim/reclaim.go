// Package reclaim implements the deferred memory-reclamation schemes the
// paper's revocable reservations are compared against. The paper's own
// 2017 baselines: hazard pointers (Michael, TPDS 2004), epoch-based
// reclamation (as in user-level RCU), and the "leak" non-scheme (never
// reclaim, approximating the best case of an epoch allocator or garbage
// collector, as the paper's LFLeak baselines do). The matrix then
// extends past the paper's publication date with two successors from
// PAPERS.md: hazard eras (HazardEras — era-interval reservations with
// the hazard-pointer protocol but epoch-like cost), and version-based
// reclamation (VBR — no reservations at all; the STM's version fence is
// the reclamation epoch).
//
// All schemes manage arena.Handle values and call back into the owning
// structure's allocator to perform the physical free. Their one retire
// list (retire.go) also keeps the bookkeeping needed to *quantify* the
// reclamation imprecision that revocable reservations eliminate: how many
// retired-but-unfreed objects exist right now, the high-water mark, and
// the total ops-weighted delay between logical retirement and physical
// reclamation.
package reclaim

import (
	"errors"
	"fmt"

	"hohtx/internal/arena"
	"hohtx/internal/obs"
)

// FreeFunc physically releases a retired handle. tid identifies the calling
// thread for the arena's per-thread free lists.
type FreeFunc func(tid int, h arena.Handle)

// Stats quantifies a scheme's reclamation behavior.
type Stats struct {
	Retired      uint64 // logical deletions handed to the scheme
	Freed        uint64 // physical frees performed
	Deferred     uint64 // Retired - Freed right now
	PeakDeferred uint64 // high-water mark of Deferred
	Scans        uint64 // reclamation passes (HP scans / epoch flips)
	DelayOpsSum  uint64 // sum over freed nodes of (free stamp - retire stamp)
	// Leftover counts retirees still held back by the scheme after its
	// most recent reclamation pass per thread: nodes a scan or drain
	// looked at and could not free (hazard still published, epoch not yet
	// safe). Zero for Leak, which never scans — its deferral is by
	// design and fully counted in Deferred. Torture harnesses assert on
	// this to catch retirees stranded by an incomplete Flush.
	Leftover uint64
}

// Add accumulates o into s, field by field (several shards' schemes as one
// aggregate). PeakDeferred sums too, which makes it an upper bound: the
// shards' peaks need not have coincided. serve.TestStatsAddSumsEveryField
// fails on a numeric field this does not sum.
func (s *Stats) Add(o Stats) {
	s.Retired += o.Retired
	s.Freed += o.Freed
	s.Deferred += o.Deferred
	s.PeakDeferred += o.PeakDeferred
	s.Scans += o.Scans
	s.DelayOpsSum += o.DelayOpsSum
	s.Leftover += o.Leftover
}

// AvgDelayOps is the mean number of caller-supplied "operation stamps"
// between a node's retirement and its physical free; zero for immediate
// schemes.
func (s Stats) AvgDelayOps() float64 {
	if s.Freed == 0 {
		return 0
	}
	return float64(s.DelayOpsSum) / float64(s.Freed)
}

// Traits are the facts about a mechanism that only the mechanism knows;
// harnesses and structures read them instead of re-deriving them from a
// variant name. A Scheme reports the first five; the Link built over it
// (link.go) passes them on and fills in the last two.
type Traits struct {
	// Deferred: an unlinked node is retired, not freed at the unlinking
	// commit, so the memory books balance only after Finish.
	Deferred bool
	// Leak: retirees are never freed (Deferred stays nonzero forever).
	Leak bool
	// DrainRounds is how many Finish sweeps over all threads leave nothing
	// deferred at quiescence: 2 when one thread's retirees can be pinned by
	// slots another thread only clears in its own, later, Finish.
	DrainRounds int
	// StrandBound: after one Finish sweep the leftovers are bounded by the
	// published-slot count (hazard pointers: one handle per slot). Hazard
	// eras drain in two rounds but are not strand-bound: one stale era
	// covers every retiree whose lifetime interval contains it.
	StrandBound bool
	// Pins: Protect keeps the protected node's memory from being freed, so
	// a held node's dead flag is trustworthy on resume. Schemes that pin
	// nothing (VBR, epochs) resume through the liveness-bracketed protocol.
	Pins bool
	// StrictLoss (Link only): a Resume that finds a committed hold gone
	// proves the held node was unlinked. False for the relaxed
	// reservations, which can also lose a hold spuriously (§3.2).
	StrictLoss bool
	// WholeOp (Link only): nothing links transactions, so every operation
	// must be a single one (the paper's HTM baseline).
	WholeOp bool
}

// Books are one structure's memory books, and Check is the conservation
// equation they must satisfy at quiescence — the paper's claim, written
// once: the arena holds exactly its sentinels, its keys' nodes and what the
// mechanism still defers, and under precise reclamation nothing is deferred.
type Books struct {
	Live      uint64 // arena nodes allocated and not freed, sentinels included
	Sentinels uint64 // nodes the structure allocated at construction
	PerKey    uint64 // arena nodes one resident key costs
	Keys      uint64 // resident keys: the caller's count (structures keep none)
	Deferred  uint64 // retired and not yet freed
	Leftover  uint64 // retirees the scheme's last pass per thread could not free
	Traits    Traits // the mechanism's
}

// Add accumulates o into b (several shards as one): the counts sum, and
// PerKey and Traits, which every shard shares, are o's.
// serve.TestStatsAddSumsEveryField fails on a count this does not sum.
func (b *Books) Add(o Books) {
	b.Live += o.Live
	b.Sentinels += o.Sentinels
	b.Keys += o.Keys
	b.Deferred += o.Deferred
	b.Leftover += o.Leftover
	b.PerKey, b.Traits = o.PerKey, o.Traits
}

// Check balances the books at quiescence; drained says the Finish sweeps
// Traits.DrainRounds asks for have run. Precise modes defer nothing; a
// drained deferred mode, unless it leaks, has nothing deferred or left
// over; and in every mode live = sentinels + per key × keys + deferred.
// The error names each failure, and the equation's residual.
func (b Books) Check(drained bool) error {
	var waits, residual error
	switch {
	case !b.Traits.Deferred && b.Deferred != 0:
		waits = fmt.Errorf("precise mode: %d deferred nodes", b.Deferred)
	case b.Traits.Deferred && !b.Traits.Leak && drained && b.Deferred+b.Leftover != 0:
		waits = fmt.Errorf("deferred mode after full drain: %d nodes still deferred, %d leftover retirees", b.Deferred, b.Leftover)
	}
	if want := b.Sentinels + b.PerKey*b.Keys + b.Deferred; b.Live != want {
		residual = fmt.Errorf("live %d != %d sentinels + %d per key × %d keys + %d deferred: residual %+d",
			b.Live, b.Sentinels, b.PerKey, b.Keys, b.Deferred, int64(b.Live-want))
	}
	return errors.Join(waits, residual)
}

// Scheme is the interface shared by the deferred-reclamation baselines:
// what a scheme must provide for the one deferred Link (link.go) to run it
// under every structure. The schemes here embed one retire list
// (retire.go), which supplies everything but each scheme's policy: the
// stamp it gives a retiree, when it sweeps, and what keeps a retiree.
//
// Protect/ClearSlots manage per-thread hazard slots and are no-ops for
// schemes that do not use them. Retire logically deletes a handle; the
// scheme frees it once no concurrent reader can still hold it. stamp is a
// caller-chosen monotonic per-thread counter (typically the thread's
// operation count) used only for delay accounting.
type Scheme interface {
	// Enter and Exit bracket one of the thread's operations, outside its
	// transactions (the deferred link's Begin and End): epochs' critical
	// section; empty for every other scheme here.
	Enter(tid int)
	Exit(tid int)
	// Protect publishes h in the thread's hazard slot i and returns h
	// (h == 0 clears the slot). The caller must re-validate reachability
	// after publishing (the standard hazard-pointer protocol).
	Protect(tid, slot int, h arena.Handle) arena.Handle
	// ClearSlots resets all of the thread's hazard slots.
	ClearSlots(tid int)
	// Born records scheme-side birth state for a freshly allocated node,
	// before it is published (hazard eras' birth era; a no-op elsewhere).
	Born(h arena.Handle)
	// Retire hands h to the scheme for eventual physical reclamation.
	Retire(tid int, h arena.Handle, stamp uint64)
	// Flush forces the thread's pending retirements to be scanned now
	// (benchmarks call it at teardown so books balance).
	Flush(tid int, stamp uint64)
	// Stats aggregates the scheme's counters.
	Stats() Stats
	// Traits reports the scheme's fixed properties.
	Traits() Traits
	// SetObserver attaches an obs probe (nil detaches).
	SetObserver(p *obs.TxProbe)
}
