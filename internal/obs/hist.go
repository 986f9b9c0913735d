package obs

import (
	"math/bits"
	"sync/atomic"

	"hohtx/internal/pad"
)

// NumBuckets is the number of log₂ buckets: bucket 0 holds exactly the
// value 0 and bucket i (1 ≤ i ≤ 64) holds values in [2^(i-1), 2^i - 1].
// Every uint64 lands in exactly one bucket.
const NumBuckets = 65

// histShards spreads recording across cache lines by the caller's shard
// hint. Must stay a power of two.
const histShards = 16

// BucketOf returns the bucket index for a value.
func BucketOf(v uint64) int { return bits.Len64(v) }

// BucketUpper returns the largest value in bucket i (the value quantile
// estimates report, so the estimate errs upward by at most one bucket).
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// histShard is one padded slice of the histogram. max is maintained with a
// CAS loop so the true maximum survives concurrent recording.
type histShard struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	_       pad.Line
}

// Histogram is a lock-free fixed-bucket log₂ histogram. Record sites pass
// a per-thread hint so concurrent recorders land on different shards; the
// zero value is NOT ready to use — obtain histograms from Domain.Hist so
// they carry a name and unit for export.
type Histogram struct {
	name   string
	unit   string
	shards [histShards]histShard
}

// NewHistogram creates a standalone histogram, one no domain exports
// (cmd/hohload's client-side latencies; tests). Domain.Hist is the
// constructor that registers the histogram for snapshot/export.
func NewHistogram(name, unit string) *Histogram {
	return &Histogram{name: name, unit: unit}
}

// Record adds v on shard 0. Single-threaded callers only; concurrent
// recorders should use RecordAt with a per-thread hint.
func (h *Histogram) Record(v uint64) { h.RecordAt(0, v) }

// RecordAt adds v to the histogram, using hint (any per-thread value: a
// tid, a slot hash) to pick a shard.
func (h *Histogram) RecordAt(hint uint64, v uint64) {
	sh := &h.shards[hint&(histShards-1)]
	sh.buckets[BucketOf(v)].Add(1)
	sh.count.Add(1)
	sh.sum.Add(v)
	for {
		cur := sh.max.Load()
		if v <= cur || sh.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// HistSnapshot is a merged point-in-time copy of a histogram. Counts are
// read without mutual exclusion and may lag in-flight recordings.
type HistSnapshot struct {
	Name    string   `json:"name"`
	Unit    string   `json:"unit"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
	P50     uint64   `json:"p50"`
	P90     uint64   `json:"p90"`
	P99     uint64   `json:"p99"`
	Buckets []uint64 `json:"buckets"` // trailing zero buckets trimmed
}

// Snapshot merges the shards and precomputes the standard quantiles.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Name: h.name, Unit: h.unit, Buckets: make([]uint64, NumBuckets)}
	for i := range h.shards {
		sh := &h.shards[i]
		for b := 0; b < NumBuckets; b++ {
			s.Buckets[b] += sh.buckets[b].Load()
		}
		s.Count += sh.count.Load()
		s.Sum += sh.sum.Load()
		if m := sh.max.Load(); m > s.Max {
			s.Max = m
		}
	}
	last := 0
	for b := 0; b < NumBuckets; b++ {
		if s.Buckets[b] != 0 {
			last = b + 1
		}
	}
	s.Buckets = s.Buckets[:last]
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1): the
// upper edge of the bucket containing the ceil(q·Count)-th smallest
// recorded value. The estimate is exact to within one log₂ bucket; the top
// bucket reports the true recorded maximum instead of its (2^64-1) edge.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	// Clamp q before the float→uint64 conversion: converting a negative
	// or NaN float64 to uint64 is implementation-specific in Go, so an
	// out-of-range q must never reach it. q ≤ 0 (and NaN, which fails
	// every comparison) degrades to the minimum rank; q ≥ 1 to the max.
	var rank uint64
	switch {
	case q > 0 && q < 1:
		rank = uint64(q * float64(s.Count))
	case q >= 1:
		rank = s.Count
	default:
		rank = 1
	}
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	top := -1
	for b := range s.Buckets {
		if s.Buckets[b] != 0 {
			top = b
		}
	}
	var cum uint64
	for b := 0; b <= top; b++ {
		cum += s.Buckets[b]
		if cum >= rank {
			if b == top && s.Max != 0 {
				return s.Max
			}
			return BucketUpper(b)
		}
	}
	return s.Max
}
