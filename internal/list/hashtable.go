package list

import (
	"sort"

	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
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
// buckets, revocation on remove, immediate reclamation). What the table
// reports about itself is its list's chassis.
type HashTable struct {
	*reclaim.Chassis[node]
	l     *List
	heads []arena.Handle
	mask  uint64
}

// NewHashTable constructs a hash set with the given bucket count (rounded
// up to a power of two; below 1 means four per thread, a small load factor
// at the harnesses' key ranges). All Config fields mean what they do for
// New; REF and ER modes are supported too, since buckets are ordinary chains.
func NewHashTable(cfg Config, buckets int) *HashTable {
	l := New(cfg)
	if buckets < 1 {
		buckets = 4 * len(l.threads)
	}
	b := 1
	for b < buckets {
		b <<= 1
	}
	heads := make([]arena.Handle, b)
	heads[0] = l.head
	for i := 1; i < b; i++ {
		heads[i], _ = l.NewSentinel()
	}
	return &HashTable{Chassis: &l.Chassis, l: l, heads: heads, mask: uint64(b - 1)}
}

// bucket returns the chain root for a key.
func (h *HashTable) bucket(key uint64) arena.Handle { return h.heads[core.Mix64(key)&h.mask] }

// Buckets reports the bucket count.
func (h *HashTable) Buckets() int { return len(h.heads) }

// Name implements sets.Set.
func (h *HashTable) Name() string { return h.l.Name() + "/hash" }

// Lookup implements sets.Set.
func (h *HashTable) Lookup(tid int, key uint64) bool {
	return h.l.run(tid, sets.Op{Kind: sets.OpLookup, Key: key}, h.bucket(key), h.l.at)
}

// Insert implements sets.Set.
func (h *HashTable) Insert(tid int, key uint64) bool {
	return h.l.run(tid, sets.Op{Kind: sets.OpInsert, Key: key}, h.bucket(key), h.l.at)
}

// Remove implements sets.Set: the bucket chain behaves exactly like Listing
// 5's list.
func (h *HashTable) Remove(tid int, key uint64) bool {
	return h.l.run(tid, sets.Op{Kind: sets.OpRemove, Key: key}, h.bucket(key), h.l.at)
}

// Apply implements sets.Set: ops are grouped by bucket and each bucket gets
// one sorted pass, all inside one transaction.
func (h *HashTable) Apply(tid int, ops []sets.Op) []sets.Result {
	return h.l.apply(tid, ops, h.bucket, h.l.at)
}

// Pass implements sets.Passer: ops are grouped by bucket and each bucket
// gets one sorted pass, window by window.
func (h *HashTable) Pass(tid int, ops []sets.Op) []sets.Result {
	return h.l.pass(tid, ops, h.bucket)
}

// Snapshot implements sets.Set (quiescence required): the union of all
// buckets, sorted.
func (h *HashTable) Snapshot() []uint64 {
	var out []uint64
	for _, head := range h.heads {
		for n := arena.Handle(h.Ar.At(head).next.Raw()); !n.IsNil(); {
			nd := h.Ar.At(n)
			out = append(out, nd.key.Raw())
			n = arena.Handle(nd.next.Raw())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BucketSizes returns each bucket's current length (diagnostics and tests;
// quiescence required).
func (h *HashTable) BucketSizes() []int {
	out := make([]int, len(h.heads))
	for i, head := range h.heads {
		for n := arena.Handle(h.Ar.At(head).next.Raw()); !n.IsNil(); {
			out[i]++
			n = arena.Handle(h.Ar.At(n).next.Raw())
		}
	}
	return out
}
