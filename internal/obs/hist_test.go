package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestBucketBoundaries pins the log₂ bucket layout exactly: bucket 0 is
// {0} and bucket i is [2^(i-1), 2^i - 1].
func TestBucketBoundaries(t *testing.T) {
	if got := BucketOf(0); got != 0 {
		t.Fatalf("BucketOf(0) = %d, want 0", got)
	}
	for i := 1; i < NumBuckets; i++ {
		lo, hi := uint64(1)<<uint(i-1), BucketUpper(i)
		if i < 64 {
			if want := uint64(1)<<uint(i) - 1; hi != want {
				t.Fatalf("BucketUpper(%d) = %d, want %d", i, hi, want)
			}
		} else if hi != ^uint64(0) {
			t.Fatalf("BucketUpper(64) = %d, want max uint64", hi)
		}
		// Both edges and nothing beyond them map back to bucket i.
		if BucketOf(lo) != i || BucketOf(hi) != i {
			t.Fatalf("bucket %d edges map to %d/%d", i, BucketOf(lo), BucketOf(hi))
		}
		if BucketOf(lo-1) >= i {
			t.Fatalf("value below bucket %d's lower edge maps into it", i)
		}
		if i < 64 && BucketOf(hi+1) != i+1 {
			t.Fatalf("value above bucket %d's upper edge maps to %d", i, BucketOf(hi+1))
		}
	}
}

// TestQuantileWithinOneBucket checks the documented error bound: for any
// recorded distribution, Quantile(q) is ≥ the true q-quantile and ≤ the
// upper edge of the true quantile's bucket.
func TestQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram("q", "ns")
	var vals []uint64
	for i := 0; i < 10000; i++ {
		// Mix of magnitudes so many buckets are populated.
		v := uint64(rng.Int63n(1 << uint(1+rng.Intn(30))))
		vals = append(vals, v)
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(vals)) {
		t.Fatalf("count = %d, want %d", s.Count, len(vals))
	}
	sorted := append([]uint64(nil), vals...)
	sortUint64(sorted)
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99, 1.0} {
		rank := int(q * float64(len(sorted)))
		if rank < 1 {
			rank = 1
		}
		if rank > len(sorted) {
			rank = len(sorted)
		}
		truth := sorted[rank-1]
		got := s.Quantile(q)
		if got < truth {
			t.Errorf("Quantile(%g) = %d below true value %d", q, got, truth)
		}
		if got > BucketUpper(BucketOf(truth)) && got != s.Max {
			t.Errorf("Quantile(%g) = %d beyond bucket of true value %d (upper %d)",
				q, got, truth, BucketUpper(BucketOf(truth)))
		}
	}
	// The top quantile must report the true max, not the bucket edge.
	if got := s.Quantile(1.0); got != s.Max {
		t.Errorf("Quantile(1.0) = %d, want recorded max %d", got, s.Max)
	}
}

func sortUint64(v []uint64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

// TestQuantileSingleValue pins behavior for degenerate distributions.
func TestQuantileSingleValue(t *testing.T) {
	h := NewHistogram("one", "ns")
	h.Record(100)
	s := h.Snapshot()
	for _, q := range []float64{0.01, 0.5, 0.99, 1.0} {
		if got := s.Quantile(q); got != 100 {
			t.Fatalf("Quantile(%g) = %d, want 100 (the only value)", q, got)
		}
	}
	if s.P50 != 100 || s.P99 != 100 {
		t.Fatalf("precomputed quantiles %d/%d, want 100/100", s.P50, s.P99)
	}

	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile should be 0")
	}
}

// TestQuantileNotCollapsedToMax guards the top-bucket special case: only
// ranks landing in the highest populated bucket may report Max.
func TestQuantileNotCollapsedToMax(t *testing.T) {
	h := NewHistogram("bimodal", "ns")
	for i := 0; i < 99; i++ {
		h.Record(10) // bucket 4
	}
	h.Record(1 << 20) // single outlier
	s := h.Snapshot()
	if got := s.Quantile(0.50); got != BucketUpper(BucketOf(10)) {
		t.Fatalf("p50 = %d, want bucket upper %d", got, BucketUpper(BucketOf(10)))
	}
	if got := s.Quantile(1.0); got != 1<<20 {
		t.Fatalf("p100 = %d, want the outlier max", got)
	}
}

// TestConcurrentMerge hammers one histogram from many goroutines and
// checks the merged snapshot accounts for every recording exactly once.
// Run under -race this also proves the recording path is race-free.
func TestConcurrentMerge(t *testing.T) {
	const workers = 8
	const perWorker = 20000
	h := NewHistogram("conc", "ns")
	var wg sync.WaitGroup
	sums := make([]uint64, workers)
	maxes := make([]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				v := uint64(rng.Int63n(1 << 24))
				sums[w] += v
				if v > maxes[w] {
					maxes[w] = v
				}
				h.RecordAt(uint64(w), v)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	var wantSum, wantMax uint64
	for w := 0; w < workers; w++ {
		wantSum += sums[w]
		if maxes[w] > wantMax {
			wantMax = maxes[w]
		}
	}
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	if s.Max != wantMax {
		t.Fatalf("max = %d, want %d", s.Max, wantMax)
	}
	var bucketTotal uint64
	for _, c := range s.Buckets {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}
