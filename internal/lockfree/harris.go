// Package lockfree implements the nonblocking comparator data structures
// the paper evaluates against: the Harris–Michael lock-free linked list
// (Harris DISC 2001, Michael SPAA 2002) under the reclamation scheme it is
// handed (the paper's LFLeak and LFHP), and the Natarajan–Mittal lock-free
// external binary search tree (PPoPP 2014), which — as the paper notes of
// the SynchroBench version — leaks memory.
//
// Links are arena handles stored in atomic words; logical-deletion marks
// and the NM tree's flag/tag bits live in the handles' reserved user bits.
// Because handles embed slot generations, compare-and-swap on links is
// ABA-safe across node recycling.
package lockfree

import (
	"sync/atomic"

	"hohtx/internal/arena"
	"hohtx/internal/pad"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
)

// markBit flags a link whose source node is logically deleted
// (Harris-style). It is one of the arena's reserved user bits.
const markBit = uint64(1) << 63

func marked(raw uint64) bool { return raw&markBit != 0 }
func clearMark(raw uint64) arena.Handle {
	return arena.Handle(raw &^ markBit)
}

// lfNode is a list node. key is written once before the node is published
// and never changes while the node is reachable; hazard-pointer recycling
// guarantees no reader holds the node when it is reused. It has no
// cache-line pad, as the TM nodes it is measured against have none: a slot
// is its words, 24 B (TestNodeLayout).
type lfNode struct {
	key  uint64
	next atomic.Uint64
}

// HarrisList is the lock-free sorted linked list. The reclamation scheme
// decides the variant: reclaim.Leak never frees removed nodes (the paper's
// LFLeak, approximating an ideal deferred reclaimer), reclaim.HazardPointers
// frees them once unprotected (LFHP).
type HarrisList struct {
	ar   *arena.Arena[lfNode]
	rec  reclaim.Scheme
	head arena.Handle
	name string
	ops  []opCounter
}

type opCounter struct {
	n uint64
	_ pad.Line
}

// NewHarrisList constructs the list, labelled name, with a head sentinel,
// reclaiming through what scheme builds over its arena. It reads cfg's
// Threads, ArenaPolicy and ScanThreshold; nothing else in it is
// transactional.
func NewHarrisList(name string, scheme func(reclaim.Nodes) reclaim.Scheme, cfg reclaim.Config) *HarrisList {
	if cfg.Threads <= 0 {
		cfg.Threads = 8
	}
	l := &HarrisList{
		ar:   arena.New[lfNode](arena.Config{Threads: cfg.Threads, Policy: cfg.ArenaPolicy}),
		ops:  make([]opCounter, cfg.Threads),
		name: name,
	}
	l.rec = scheme(reclaim.Nodes{Config: cfg, Free: l.ar.Free})
	l.head = l.ar.Alloc(0)
	n := l.ar.At(l.head)
	n.key = 0
	n.next.Store(0)
	return l
}

// Name implements sets.Set.
func (l *HarrisList) Name() string { return l.name }

// Register implements sets.Set.
func (l *HarrisList) Register(tid int) {}

// Finish implements sets.Set.
func (l *HarrisList) Finish(tid int) {
	l.rec.ClearSlots(tid)
	l.rec.Flush(tid, l.ops[tid].n)
}

// Apply implements sets.Set. The lock-free baseline has no transactions to
// merge into, so ops execute one at a time: results are individually
// linearizable but the batch is NOT atomic.
func (l *HarrisList) Apply(tid int, ops []sets.Op) []sets.Result {
	return sets.ApplyEach(l, tid, ops)
}

// find locates the first node with key >= key, physically unlinking any
// marked nodes it passes (Michael's helping). On return, curr (possibly
// Nil) is protected by hazard slot 0 and prev by slot 1, and
// *prevCell == currH held after both hazards were published.
func (l *HarrisList) find(tid int, key uint64) (prevCell *atomic.Uint64, currH arena.Handle, currKey uint64, found bool) {
retry:
	for {
		prevH := l.head
		l.rec.Protect(tid, 1, prevH)
		prevCell = &l.ar.At(prevH).next
		currRaw := prevCell.Load()
		for {
			if marked(currRaw) {
				// prev itself was logically deleted: its next carries the
				// mark, so this edge must not be treated as clean.
				continue retry
			}
			currH = clearMark(currRaw)
			if currH.IsNil() {
				return prevCell, arena.Nil, 0, false
			}
			l.rec.Protect(tid, 0, currH)
			if prevCell.Load() != currRaw {
				continue retry // prev changed under us: restart
			}
			n := l.ar.At(currH)
			nextRaw := n.next.Load()
			if marked(nextRaw) {
				// curr is logically deleted: unlink it (helping).
				if !prevCell.CompareAndSwap(currRaw, uint64(clearMark(nextRaw))) {
					continue retry
				}
				l.retire(tid, currH)
				currRaw = uint64(clearMark(nextRaw))
				continue
			}
			ck := n.key
			if prevCell.Load() != currRaw {
				continue retry // curr may have been unlinked; revalidate
			}
			if ck >= key {
				return prevCell, currH, ck, ck == key
			}
			// Advance: curr becomes prev (move its hazard to slot 1).
			l.rec.Protect(tid, 1, currH)
			prevCell = &n.next
			currRaw = nextRaw
		}
	}
}

func (l *HarrisList) retire(tid int, h arena.Handle) {
	l.rec.Retire(tid, h, l.ops[tid].n)
}

// Lookup implements sets.Set.
func (l *HarrisList) Lookup(tid int, key uint64) bool {
	l.ops[tid].n++
	_, _, _, found := l.find(tid, key)
	l.rec.ClearSlots(tid)
	return found
}

// Insert implements sets.Set.
func (l *HarrisList) Insert(tid int, key uint64) bool {
	l.ops[tid].n++
	defer l.rec.ClearSlots(tid)
	var nh arena.Handle
	for {
		prevCell, currH, _, found := l.find(tid, key)
		if found {
			if !nh.IsNil() {
				l.ar.Free(tid, nh) // never published: free directly
			}
			return false
		}
		if nh.IsNil() {
			nh = l.ar.Alloc(tid)
			l.ar.At(nh).key = key
		}
		l.ar.At(nh).next.Store(uint64(currH))
		if prevCell.CompareAndSwap(uint64(currH), uint64(nh)) {
			return true
		}
	}
}

// Remove implements sets.Set: mark first (logical delete), then attempt
// the physical unlink, falling back to find's helping on failure.
func (l *HarrisList) Remove(tid int, key uint64) bool {
	l.ops[tid].n++
	defer l.rec.ClearSlots(tid)
	for {
		prevCell, currH, _, found := l.find(tid, key)
		if !found {
			return false
		}
		n := l.ar.At(currH)
		nextRaw := n.next.Load()
		if marked(nextRaw) {
			continue // someone else is deleting it; help via find
		}
		if !n.next.CompareAndSwap(nextRaw, nextRaw|markBit) {
			continue
		}
		// Logical delete succeeded; try to unlink, else find() will.
		if prevCell.CompareAndSwap(uint64(currH), nextRaw) {
			l.retire(tid, currH)
		} else {
			l.find(tid, key)
		}
		return true
	}
}

// Snapshot implements sets.Set (quiescence required).
func (l *HarrisList) Snapshot() []uint64 {
	var out []uint64
	for raw := l.ar.At(l.head).next.Load(); ; {
		h := clearMark(raw)
		if h.IsNil() {
			return out
		}
		n := l.ar.At(h)
		if !marked(n.next.Load()) {
			out = append(out, n.key)
		}
		raw = n.next.Load()
	}
}

// LiveNodes implements sets.MemoryReporter.
func (l *HarrisList) LiveNodes() uint64 { return l.ar.Stats().Live }

// DeferredNodes implements sets.MemoryReporter: for the leaky variant this
// is every node ever removed (the unbounded memory growth the paper
// contrasts with precise reclamation).
func (l *HarrisList) DeferredNodes() uint64 { return l.rec.Stats().Deferred }

// ReclaimStats exposes the scheme's counters.
func (l *HarrisList) ReclaimStats() reclaim.Stats { return l.rec.Stats() }

// Books implements sets.BooksReporter: one head sentinel, one node per key.
func (l *HarrisList) Books(keys uint64) reclaim.Books {
	st := l.rec.Stats()
	return reclaim.Books{
		Live: l.ar.Stats().Live, Sentinels: 1, PerKey: 1, Keys: keys,
		Deferred: st.Deferred, Leftover: st.Leftover, Traits: l.rec.Traits(),
	}
}
