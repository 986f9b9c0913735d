// tuner: the paper's future-work item, built on this library's knobs.
//
// Section 5.2 ends: "This experiment suggests future work in dynamic
// tuning of the window size. Doing so will entail hand-crafting the
// transactions ... GCC TM does not expose the fact of an abort, or its
// cause, to the programmer." This library *does* expose abort counts
// (hohtx.StatsOf) and a live window knob (hohtx.Tunable), so the tuner the
// paper could not build in 2017 is ~40 lines here.
//
// The controller samples the abort-per-commit ratio every interval and
// walks the window size W down when conflicts are high and up when they
// are rare (the paper's trade-off: big windows amortize transaction
// boundaries, small windows dodge conflicts). The program compares a
// deliberately oversized fixed window against the adaptive controller
// under the same contended workload and prints both throughputs and the
// window trajectory.
//
// Run with: go run ./examples/tuner
package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hohtx"
)

const (
	threads  = 8
	keyRange = 1 << 10 // the paper's 10-bit list panel
	phase    = 1500 * time.Millisecond
	tick     = 50 * time.Millisecond
)

// workload hammers the set with the paper's 33%-lookup mix until stop.
// Each goroutine leases a worker slot from the pool for the whole run —
// the degenerate (but common) case of slot leasing where goroutines and
// slots are in 1:1 balance and a lease is just a checked-out worker id.
func workload(set hohtx.Set, pool *hohtx.LeasePool, stop *atomic.Bool) uint64 {
	var ops atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			state := uint64(w)*101 + 7
			_ = pool.Do(context.Background(), func(tid int) {
				var n uint64
				for !stop.Load() {
					state += 0x9e3779b97f4a7c15
					z := state
					z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
					z ^= z >> 27
					key := z%keyRange + 1
					switch {
					case (z>>32)%100 < 33:
						set.Lookup(tid, key)
					case (z>>31)&1 == 0:
						set.Insert(tid, key)
					default:
						set.Remove(tid, key)
					}
					n++
				}
				ops.Add(n)
			})
		}(w)
	}
	wg.Wait()
	return ops.Load()
}

// tune runs the abort-feedback controller until stop, returning the
// window trajectory it walked.
func tune(set hohtx.Set, stop *atomic.Bool) []int {
	tunable := set.(hohtx.Tunable)
	w := 32 // start oversized, like the fixed baseline
	trajectory := []int{w}
	prev := hohtx.StatsOf(set)
	for !stop.Load() {
		time.Sleep(tick)
		cur := hohtx.StatsOf(set)
		commits := cur.Commits - prev.Commits
		aborts := cur.Aborts - prev.Aborts
		prev = cur
		if commits == 0 {
			continue
		}
		rate := float64(aborts) / float64(commits)
		switch {
		case rate > 0.08 && w > 1:
			w /= 2 // conflicts dominate: shrink windows
		case rate < 0.02 && w < 32:
			w *= 2 // conflict-free: amortize boundaries
		default:
			continue
		}
		tunable.SetWindow(w)
		trajectory = append(trajectory, w)
	}
	return trajectory
}

func run(name string, adaptive bool) {
	set := hohtx.NewListSet(hohtx.Config{
		Threads: threads,
		Window:  32,
		// On a single-core host, transactions only conflict if they
		// interleave; simulate the preemption a multicore machine gets
		// for free.
		SimulatePreemption: runtime.GOMAXPROCS(0) == 1,
	})
	pool := hohtx.NewLeasePool(set, hohtx.LeaseConfig{Slots: threads})
	var stop atomic.Bool
	var trajectory []int
	var tunerWG sync.WaitGroup
	if adaptive {
		tunerWG.Add(1)
		go func() {
			defer tunerWG.Done()
			trajectory = tune(set, &stop)
		}()
	}
	start := time.Now()
	done := make(chan uint64, 1)
	go func() { done <- workload(set, pool, &stop) }()
	time.Sleep(phase)
	stop.Store(true)
	ops := <-done
	tunerWG.Wait()
	pool.Close() // flushes every worker slot (replaces per-goroutine Finish)
	elapsed := time.Since(start).Seconds()

	st := hohtx.StatsOf(set)
	fmt.Printf("%-18s %8.2f Kops/s   aborts/commit=%.3f (read=%d valid=%d wlock=%d)  revocations=%d\n",
		name, float64(ops)/elapsed/1e3, float64(st.Aborts)/float64(st.Commits),
		st.ReadConflicts, st.Validations, st.WriteLocks,
		st.BiasRevocations)
	if adaptive {
		fmt.Printf("%-18s window trajectory: %v\n", "", trajectory)
	}
}

func main() {
	fmt.Printf("adaptive window tuning, %d threads, %d-key list, 33%% lookups\n\n", threads, keyRange)
	run("fixed W=32", false)
	run("adaptive", true)
	fmt.Println("\n(the adaptive run should walk W down toward the paper's tuned value and beat the oversized fixed window)")
}
