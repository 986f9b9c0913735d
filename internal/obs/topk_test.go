package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// twoScanTopK is the space-saving update as it was written before addLocked
// found the key and the minimum in one scan: first a scan for the key, then,
// on a full sketch, a second scan for the first minimum. It is the reference
// addLocked is held to.
type twoScanTopK struct {
	k     int
	items []TopKItem // insertion order, overwritten in place on eviction
}

func (r *twoScanTopK) add(key, w uint64) {
	for i := range r.items {
		if r.items[i].Key == key {
			r.items[i].Count += w
			return
		}
	}
	if len(r.items) < r.k {
		r.items = append(r.items, TopKItem{Key: key, Count: w})
		return
	}
	mi := 0
	for i := range r.items {
		if r.items[i].Count < r.items[mi].Count {
			mi = i
		}
	}
	m := r.items[mi].Count
	r.items[mi] = TopKItem{Key: key, Count: m + w, Err: m}
}

// sorted is the reference's Items: highest count first, ties by key.
func (r *twoScanTopK) sorted() []TopKItem {
	out := append([]TopKItem{}, r.items...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// TestTopKMatchesTwoScan: the one-scan addLocked leaves Items exactly as the
// two-scan update does, after every add, on random weighted streams whose
// small weights force count ties among the tracked keys — the case in which
// which minimum is evicted decides what the sketch holds.
func TestTopKMatchesTwoScan(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("k=%d/seed=%d", k, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				got, want := NewTopK(k), &twoScanTopK{k: k}
				keys := 2*k + 3 // more keys than slots: evictions throughout
				ties := 0
				for i := 0; i < 2000; i++ {
					key, w := uint64(1+rng.Intn(keys)), uint64(1+rng.Intn(2))
					add(got, key, w)
					want.add(key, w)
					g, r := got.Items(), want.sorted()
					if !reflect.DeepEqual(g, r) {
						t.Fatalf("after add %d (key %d, weight %d): Items = %+v, two-scan = %+v", i+1, key, w, g, r)
					}
					for j := 1; j < len(r); j++ {
						if r[j].Count == r[len(r)-1].Count && r[j-1].Count == r[j].Count {
							ties++
							break
						}
					}
				}
				if k > 1 && ties == 0 {
					t.Fatal("no tie at the minimum: the stream does not test which minimum is evicted")
				}
			})
		}
	}
}
