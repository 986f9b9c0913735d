package loadgen

import (
	"slices"
	"testing"

	"hohtx/internal/sets"
)

func TestDrawMix(t *testing.T) {
	m := Mix{Keys: 256, Reads: 80}
	state := uint64(99)
	counts := [3]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		op, _ := m.Draw(&state)
		if op.Key < 1 || op.Key > m.Keys {
			t.Fatalf("key %d out of range", op.Key)
		}
		counts[op.Kind]++
	}
	lookPct := float64(counts[sets.OpLookup]) / n * 100
	if lookPct < 78 || lookPct > 82 {
		t.Fatalf("lookup fraction %.1f%%, want ~80%%", lookPct)
	}
	insRemRatio := float64(counts[sets.OpInsert]) / float64(counts[sets.OpRemove])
	if insRemRatio < 0.9 || insRemRatio > 1.1 {
		t.Fatalf("insert/remove ratio %.2f, want ~1", insRemRatio)
	}
}

// TestScanFracOnlyAddsScans: the same seed at ScanFrac 10 and 0 draws the
// same point op everywhere a scan did not take its place, so a scan share
// changes what is added and not what is compared.
func TestScanFracOnlyAddsScans(t *testing.T) {
	plain, scanning := Mix{Keys: 1024, Reads: 50}, Mix{Keys: 1024, Reads: 50, ScanFrac: 10}
	a, b := uint64(7), uint64(7)
	const n = 100000
	scans := 0
	for i := 0; i < n; i++ {
		want, scan0 := plain.Draw(&a)
		got, scan := scanning.Draw(&b)
		if scan0 {
			t.Fatalf("draw %d: a scan at ScanFrac 0", i)
		}
		if scan {
			scans++
		} else if got != want {
			t.Fatalf("draw %d: %+v at ScanFrac 10, %+v at 0", i, got, want)
		}
	}
	if pct := float64(scans) / n * 100; pct < 9 || pct > 11 {
		t.Fatalf("scan fraction %.2f%%, want 10%% ± 1%%", pct)
	}
}

func TestPrefillOrder(t *testing.T) {
	for _, keys := range []uint64{1, 1000, 1001} {
		order := PrefillOrder(keys, 7)
		if got, want := uint64(len(order)), (keys+1)/2; got != want {
			t.Fatalf("keys %d: %d prefill keys, want %d", keys, got, want)
		}
		sorted := slices.Clone(order)
		slices.Sort(sorted)
		for i, k := range sorted {
			if k != uint64(2*i+1) {
				t.Fatalf("keys %d: sorted prefill[%d] = %d, want every odd key once", keys, i, k)
			}
		}
	}
	if a, b := PrefillOrder(1000, 7), PrefillOrder(1000, 7); !slices.Equal(a, b) {
		t.Fatal("the same seed gave two orders")
	}
	if a, b := PrefillOrder(1000, 7), PrefillOrder(1000, 8); slices.Equal(a, b) {
		t.Fatal("seeds 7 and 8 gave the same order")
	}
}
