package list

import (
	"sort"

	"hohtx/internal/arena"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// HashTable is a concurrent hash set built from bucketed hand-over-hand
// lists. The paper's conclusion names hash tables (with balanced trees) as
// the structures it expects revocable reservations to serve next, "for
// which existing scalable algorithms rely on deferred memory reclamation"
// (§6); this is that construction. Every bucket is an independent sorted
// chain rooted at its own sentinel, but all buckets share one transactional
// runtime, one arena, and one reservation object — a thread operates in one
// bucket at a time, so the single reservation per thread the paper's
// structures need still suffices.
//
// Compared to the plain list, traversals are short (load factor) and
// conflicts only arise within a bucket; the reservation mechanism is
// exercised exactly as in the list (window cuts near the end of long
// buckets, revocation on remove, immediate reclamation).
type HashTable struct {
	l     *List
	heads []arena.Handle
	mask  uint64
}

var _ sets.Set = (*HashTable)(nil)
var _ sets.MemoryReporter = (*HashTable)(nil)

// NewHashTable constructs a hash set with the given bucket count (rounded
// up to a power of two). All Config fields mean what they do for New; REF
// and ER modes are supported too, since buckets are ordinary chains.
func NewHashTable(cfg Config, buckets int) *HashTable {
	if buckets < 1 {
		buckets = 1
	}
	b := 1
	for b < buckets {
		b <<= 1
	}
	l := New(cfg)
	heads := make([]arena.Handle, b)
	heads[0] = l.head
	for i := 1; i < b; i++ {
		heads[i] = l.newSentinel()
	}
	return &HashTable{l: l, heads: heads, mask: uint64(b - 1)}
}

// bucketIndex returns the bucket number for a key.
func (h *HashTable) bucketIndex(key uint64) int {
	x := key
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x & h.mask)
}

// bucket returns the chain root for a key.
func (h *HashTable) bucket(key uint64) arena.Handle {
	return h.heads[h.bucketIndex(key)]
}

// Buckets reports the bucket count.
func (h *HashTable) Buckets() int { return len(h.heads) }

// Name implements sets.Set.
func (h *HashTable) Name() string { return h.l.Name() + "/hash" }

// Register implements sets.Set.
func (h *HashTable) Register(tid int) { h.l.Register(tid) }

// Finish implements sets.Set.
func (h *HashTable) Finish(tid int) { h.l.Finish(tid) }

// Lookup implements sets.Set.
func (h *HashTable) Lookup(tid int, key uint64) bool {
	res, _ := h.l.applyAt(tid, key, h.bucket(key), false,
		func(tx *stm.Tx, prevH, currH arena.Handle) bool { return true },
		func(tx *stm.Tx, prevH, currH arena.Handle) bool { return false },
	)
	return res
}

// Insert implements sets.Set.
func (h *HashTable) Insert(tid int, key uint64) bool {
	res, _ := h.l.applyAt(tid, key, h.bucket(key), false,
		func(tx *stm.Tx, prevH, currH arena.Handle) bool { return false },
		func(tx *stm.Tx, prevH, currH arena.Handle) bool {
			h.l.insertSingly(tx, tid, key, prevH, currH)
			return true
		},
	)
	return res
}

// Remove implements sets.Set: unlink, revoke, reclaim immediately — the
// bucket chain behaves exactly like Listing 5's list.
func (h *HashTable) Remove(tid int, key uint64) bool {
	res, _ := h.l.applyAt(tid, key, h.bucket(key), false,
		func(tx *stm.Tx, prevH, currH arena.Handle) bool {
			h.l.unlinkAndReclaim(tx, tid, prevH, currH)
			return true
		},
		func(tx *stm.Tx, prevH, currH arena.Handle) bool { return false },
	)
	return res
}

// Snapshot implements sets.Set (quiescence required): the union of all
// buckets, sorted.
func (h *HashTable) Snapshot() []uint64 {
	var out []uint64
	for _, head := range h.heads {
		for n := arena.Handle(h.l.ar.At(head).next.Raw()); !n.IsNil(); {
			nd := h.l.ar.At(n)
			out = append(out, nd.key.Raw())
			n = arena.Handle(nd.next.Raw())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LiveNodes implements sets.MemoryReporter (includes one sentinel per
// bucket).
func (h *HashTable) LiveNodes() uint64 { return h.l.LiveNodes() }

// DeferredNodes implements sets.MemoryReporter.
func (h *HashTable) DeferredNodes() uint64 { return h.l.DeferredNodes() }

// TMStats delegates to the shared runtime.
func (h *HashTable) TMStats() stm.Stats { return h.l.TMStats() }

// GuardStats exposes the arena sanitizer counters (zero when guard is off).
func (h *HashTable) GuardStats() arena.GuardStats { return h.l.GuardStats() }

// ReclaimStats and ReclaimTraits expose the deferred-reclamation counters
// and the mode's fixed properties.
func (h *HashTable) ReclaimStats() reclaim.Stats   { return h.l.ReclaimStats() }
func (h *HashTable) ReclaimTraits() reclaim.Traits { return h.l.ReclaimTraits() }

// SetWindow implements the runtime window knob.
func (h *HashTable) SetWindow(w int) { h.l.SetWindow(w) }

// BucketSizes returns each bucket's current length (diagnostics and tests;
// quiescence required).
func (h *HashTable) BucketSizes() []int {
	out := make([]int, len(h.heads))
	for i, head := range h.heads {
		for n := arena.Handle(h.l.ar.At(head).next.Raw()); !n.IsNil(); {
			out[i]++
			n = arena.Handle(h.l.ar.At(n).next.Raw())
		}
	}
	return out
}
