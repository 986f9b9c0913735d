package stm

import (
	"sync"
	"sync/atomic"
	"time"

	"hohtx/internal/pad"
)

// BRAVO-style distributed readers-writer lock for the serial-fallback path
// (Dice & Kogan, "BRAVO — Biased Locking for Reader-Writer Locks",
// USENIX ATC 2019, adapted).
//
// Every writing speculative commit used to take the reader side of a
// sync.RWMutex, which funnels all committers through one contended reader
// counter — exactly the kind of per-operation shared-cache-line traffic the
// paper argues must stay off the hot path. Here the common case touches
// only a per-transaction slot in a padded visible-readers table:
//
//   - reader (speculative commit): if the lock is reader-biased, CAS your
//     hashed slot from 0 to a nonzero claim and re-check the bias; on
//     success the entire acquisition touched one private cache line. If the
//     bias is revoked (or the slot is taken by a hash collision), fall back
//     to the underlying RWMutex's reader side.
//   - writer (serial-mode transaction): take the underlying mutex, revoke
//     the bias, then scan the visible-readers table and wait for every
//     claimed slot to drain. Readers that arrive after the revocation see
//     the cleared bias flag and queue on the underlying lock.
//
// The flag/re-check pairing makes the race safe under Go's sequentially
// consistent atomics: either the reader's re-check observes the revoked
// bias (and the reader retreats to the slow path), or the writer's table
// scan observes the reader's claimed slot (and waits for it).
//
// Bias is re-armed by slow-path readers once a cooldown proportional to
// the last revocation's cost has passed, so a serial-heavy phase (e.g. the
// capacity cliff of large HTM-profile transactions) settles into plain
// rwlock behavior instead of paying a table revocation per serial commit.

const (
	// bravoSlotBits sizes the visible-readers table. 64 slots comfortably
	// cover the thread counts this repository benchmarks (1-16) with a low
	// collision rate; collisions only cost a slow-path acquisition.
	bravoSlotBits = 6
	bravoSlots    = 1 << bravoSlotBits

	// bravoInhibitMult scales the re-arming cooldown: after a revocation
	// that took D nanoseconds, readers may re-arm the bias only D*mult
	// nanoseconds later, bounding the fraction of writer time spent
	// revoking (the BRAVO paper's inhibition rule).
	bravoInhibitMult = 16
)

// bravoSlot is one padded visible-reader entry: 1 while a committer claims
// it, 0 when free.
type bravoSlot struct {
	v atomic.Uint64
	_ [pad.CacheLine - 8]byte
}

// bravoLock is the distributed serial-fallback lock. The zero value is NOT
// ready to use: call arm() once (NewRuntime does) to enable reader bias.
type bravoLock struct {
	rbias        atomic.Bool
	inhibitUntil atomic.Int64 // unix nanos before which re-arming is barred
	_            pad.Line
	slots        [bravoSlots]bravoSlot
	wmu          sync.RWMutex

	// Observability counters (surfaced through Runtime.Stats). Slow-path
	// reader acquisitions are counted transaction-locally (Tx.slowPaths)
	// to keep even the fallback path free of extra shared-line traffic.
	revocations atomic.Uint64 // writer-side bias revocations
	writerWaits atomic.Uint64 // a revocation's spin-waits on claimed slots
}

func (b *bravoLock) arm() { b.rbias.Store(true) }

// rlockFast tries to acquire the reader side for one speculative commit on
// the biased fast path alone. h is the transaction's slot hash; the top
// bits index the table (Fibonacci hashing). It returns the claimed slot
// index, or -1 if the caller must fall back to rlockSlow. Small enough to
// inline into the commit path.
func (b *bravoLock) rlockFast(h uint64) int {
	if !b.rbias.Load() {
		return -1
	}
	i := int(h >> (64 - bravoSlotBits))
	if !b.slots[i].v.CompareAndSwap(0, 1) {
		return -1
	}
	if b.rbias.Load() {
		return i
	}
	// A writer revoked the bias between our claim and the re-check;
	// retreat so it does not wait on us needlessly.
	b.slots[i].v.Store(0)
	return -1
}

// rlockSlow acquires the reader side through the underlying rwlock after
// rlockFast failed. slow is the caller's slow-path counter, bumped (and
// used as a re-arm sampling source) on every fallback acquisition.
func (b *bravoLock) rlockSlow(slow *uint64) {
	b.wmu.RLock()
	*slow++
	// Probe for re-arming only every 64th of the caller's slow-path
	// acquisitions: the clock read is far too expensive to pay per commit,
	// and a serial-heavy phase (the whole point of the inhibition window)
	// keeps the lock on this path for long stretches, where each re-arm
	// buys the next serial writer a full table sweep. Holding the reader
	// side proves no writer is active, so re-arming cannot strand one
	// mid-revocation.
	if *slow&63 == 0 && !b.rbias.Load() &&
		time.Now().UnixNano() >= b.inhibitUntil.Load() {
		b.rbias.Store(true)
	}
}

// runlock releases the reader side claimed by rlock.
func (b *bravoLock) runlock(slot int) {
	if slot >= 0 {
		b.slots[slot].v.Store(0)
		return
	}
	b.wmu.RUnlock()
}

// lock acquires the exclusive (serial-mode) side: the underlying mutex,
// then — if readers are biased — a revocation sweep over the table.
func (b *bravoLock) lock() {
	b.wmu.Lock()
	if !b.rbias.Load() {
		return
	}
	b.rbias.Store(false)
	b.revocations.Add(1)
	start := time.Now()
	for i := range b.slots {
		if b.slots[i].v.Load() == 0 {
			continue
		}
		b.writerWaits.Add(1)
		for spins := 0; b.slots[i].v.Load() != 0; spins++ {
			pause(spins)
		}
	}
	d := time.Since(start).Nanoseconds()
	b.inhibitUntil.Store(time.Now().UnixNano() + d*bravoInhibitMult)
}

// unlock releases the exclusive side.
func (b *bravoLock) unlock() { b.wmu.Unlock() }
