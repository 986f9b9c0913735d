package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hohtx/internal/sets"
)

// The per-node price of a traversal, in process: no socket, no codec, no
// lease pool — a structure from Build, the 50/25/25 mix, two worker ids.
// On the list an operation walks keys/4 nodes on average (half the range
// is present, half of that lies before a uniform key), so ns/op over
// keys/4 is what one node visit costs: two transactional reads (key, next)
// and one handle translation, plus the window commits spread over W nodes.
// It reads the same whatever the list's size when the cost is instructions
// rather than cache misses — from 256 keys up; at 64 keys the whole list
// (~32 nodes) is shorter than BestWindow's 64, so an operation is one or two
// windows (the first is scattered) on a list two workers fight over, and the
// row reads the per-window fixed cost and the conflicts instead. Compare two
// checkouts by building this package once per side (`go test -c`) and
// alternating the binaries at `-test.cpu 2`.

// pointWorkers is the number of worker ids the point benchmarks drive.
const pointWorkers = 2

func buildPrefilled(b *testing.B, f Family, name string, keyBits int) (sets.Set, Workload) {
	b.Helper()
	s, err := Build(f, VariantSpec{Name: name}, pointWorkers)
	if err != nil {
		b.Fatal(err)
	}
	w := Workload{KeyBits: keyBits, LookupPct: 50}
	Prefill(s, w, pointWorkers, 1)
	return s, w
}

// runWorkers spreads b.N iterations over the worker ids, each worker
// running fn(tid, n, state) for its n with a seed of its own, and returns
// once all have finished, with the timer stopped.
func runWorkers(b *testing.B, fn func(tid, n int, state uint64)) {
	b.ResetTimer()
	var wg sync.WaitGroup
	for tid := 0; tid < pointWorkers; tid++ {
		n := b.N / pointWorkers
		if tid == 0 {
			n += b.N % pointWorkers
		}
		wg.Add(1)
		go func(tid, n int) {
			defer wg.Done()
			fn(tid, n, uint64(tid)*0x9e3779b97f4a7c15+7)
		}(tid, n)
	}
	wg.Wait()
	b.StopTimer()
}

// runPointOps runs b.N operations of the workload's mix over the worker ids.
func runPointOps(b *testing.B, s sets.Set, w Workload) {
	runWorkers(b, func(tid, n int, state uint64) {
		for i := 0; i < n; i++ {
			switch op, key := nextOp(w, &state); op {
			case opInsert:
				s.Insert(tid, key)
			case opRemove:
				s.Remove(tid, key)
			default:
				s.Lookup(tid, key)
			}
		}
	})
}

func BenchmarkPointOps(b *testing.B) {
	for _, keyBits := range []int{6, 8, 10, 12, 14} {
		b.Run(fmt.Sprintf("keys=%d", 1<<keyBits), func(b *testing.B) {
			s, w := buildPrefilled(b, FamilySingly, "RR-V", keyBits)
			runPointOps(b, s, w)
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(nsPerOp/float64(w.KeyRange()/4), "ns/node")
		})
	}
	// The other two families, for the handle translation and the guard
	// check their descents share with the list: a descent is ~log2(keys)
	// nodes, so these rows report ns/op alone.
	for _, f := range []Family{FamilyExternalTree, FamilySkipList} {
		b.Run(fmt.Sprintf("%s/keys=65536", f), func(b *testing.B) {
			s, w := buildPrefilled(b, f, "RR-V", 16)
			runPointOps(b, s, w)
		})
	}
	// The skiplist's scan: AscendN(64) from a uniform key, b.N scans over
	// the worker ids. ns/key is the price of a key a scan emits — the
	// in-process counterpart of the ladder's sets.ns_per_scan_key, with no
	// socket, merge or lease pool beside it.
	b.Run(fmt.Sprintf("%s/scan/keys=65536", FamilySkipList), func(b *testing.B) {
		s, w := buildPrefilled(b, FamilySkipList, "RR-V", 16)
		asc := s.(sets.Ascender)
		var keys atomic.Uint64
		runWorkers(b, func(tid, n int, state uint64) {
			got := uint64(0)
			count := func(uint64) bool { got++; return true }
			for i := 0; i < n; i++ {
				if err := asc.AscendN(tid, splitmix64(&state)%w.KeyRange()+1, 64, count); err != nil {
					panic(err)
				}
			}
			keys.Add(got)
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(keys.Load(), 1)), "ns/key")
	})
}

// BenchmarkWindow is the price of a window transaction with the traversal
// taken out: W=1 on a 256-key RR-V list, so a Lookup past the last key is a
// chain of ~129 read-only windows, each Resume → two nodes → Hold → commit
// (the last one Drops). ns/window is what the runtime charges per hand-over
// — context, counters, reset, reservation — beside two node visits' worth
// of reads. One worker per CPU, each with its own tid.
func BenchmarkWindow(b *testing.B) {
	const keyBits = 8
	workers := min(runtime.GOMAXPROCS(0), pointWorkers)
	s, err := Build(FamilySingly, VariantSpec{Name: "RR-V", Window: 1, NoScatter: true}, pointWorkers)
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(1); k <= 1<<keyBits; k++ {
		s.Insert(0, k)
	}
	commits := func() uint64 { return s.(sets.TMStatsReporter).TMStats().Commits }
	c0 := commits()
	b.ResetTimer()
	var wg sync.WaitGroup
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := tid; i < b.N; i += workers {
				s.Lookup(tid, 1<<keyBits+1)
			}
		}(tid)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())*float64(workers)/float64(commits()-c0), "ns/window")
}

// BenchmarkBatchApply is the writer's side of the read path: a write-only
// Apply on a 256-key TMHP list is one transaction whose every read after the
// first write must ask whether the cell has a pending write. ops=16 is the
// benchmark's MULTI 16 frame (~30 cells written); ops=32 writes ~60, so the
// write-set index grows within the frame. ns/op is per frame. A frame runs
// alone and, at these sizes, inside the modelled HTM capacity, so it never
// needs the serial fallback: one that takes it fails the benchmark, because
// its ns/op would no longer price the write set. (From 40 ops on, a growing
// share of frames reads past the capacity and serializes: 48 ops, 0.2 %; 64
// ops, 14 %.)
func BenchmarkBatchApply(b *testing.B) {
	for _, n := range []int{16, 32} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			s, w := buildPrefilled(b, FamilySingly, "TMHP", 8)
			serial := func() uint64 { return s.(sets.TMStatsReporter).TMStats().SerialCommits }
			s0 := serial()
			ops := make([]sets.Op, n)
			state := uint64(7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range ops {
					r := splitmix64(&state)
					ops[j] = sets.Op{Kind: sets.OpInsert + sets.OpKind(r>>40&1), Key: r%w.KeyRange() + 1}
				}
				s.Apply(0, ops)
			}
			b.StopTimer()
			if d := serial() - s0; d != 0 {
				b.Fatalf("%d serial commits in %d frames of %d ops", d, b.N, n)
			}
		})
	}
}
