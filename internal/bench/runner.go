package bench

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hohtx/internal/obs"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Result is the measurement for one (variant, workload, threads) cell.
type Result struct {
	Threads int
	// MopsPerSec is total throughput in million operations per second,
	// averaged over trials.
	MopsPerSec float64
	// RelStddev is the relative standard deviation across trials (the
	// paper reports variance below 3%).
	RelStddev float64
	// AbortsPerOp and SerialPerOp characterize TM behavior (0 for the
	// lock-free variants).
	AbortsPerOp float64
	SerialPerOp float64
	// DeferredPeak is the reclamation scheme's peak deferred-node count
	// (0 for precise variants; the paper's reclamation-delay story).
	DeferredPeak uint64
	// AvgDelayOps is the mean number of operations between a node's
	// logical deletion and its physical free (0 for precise variants).
	AvgDelayOps float64
	// Per-cause abort breakdown (all per operation, 0 for the lock-free
	// variants): attributing commit-path changes to the conflict type they
	// move requires more than the AbortsPerOp total.
	ReadConflictsPerOp float64
	ValidationsPerOp   float64
	WriteLocksPerOp    float64
	CapacityPerOp      float64
	// Sampled retire→free distance percentiles in operation stamps, pulled
	// from the structure's observability domain when the spec attached one
	// (VariantSpec.Observe); all zero otherwise — the per-scheme
	// reclamation-latency view the delay study tabulates.
	ReclaimP50Ops uint64
	ReclaimP99Ops uint64
	ReclaimMaxOps uint64
}

// MakeSet constructs a fresh instance of a variant for the given thread
// count (a fresh instance per trial keeps trials independent, as the
// paper's 5-trial averages are).
type MakeSet func(threads int) sets.Set

// RunConfig controls a measurement.
type RunConfig struct {
	Threads int
	Trials  int
	Seed    int64
}

// Run measures one cell: Trials independent constructions, each prefilled
// to 50% and then hammered with the workload's mix from Threads workers.
// After each trial it checks the balance: the snapshot's size must equal
// prefill + successful inserts − successful removes (cheap beside the run).
func Run(mk MakeSet, w Workload, cfg RunConfig) (Result, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	var mops []float64
	var res Result
	res.Threads = cfg.Threads
	for trial := 0; trial < cfg.Trials; trial++ {
		s := mk(cfg.Threads)
		Prefill(s, w, cfg.Threads, cfg.Seed+int64(trial))

		prefillCount := int64(w.KeyRange() / 2)
		var succIns, succRem atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for t := 0; t < cfg.Threads; t++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				s.Register(tid)
				state := uint64(cfg.Seed) + uint64(tid)*0x1234567 + uint64(trial)*0xabcdef + 1
				var ins, rem int64
				for i := 0; i < w.OpsPerThread; i++ {
					op, key := nextOp(w, &state)
					switch op {
					case opLookup:
						s.Lookup(tid, key)
					case opInsert:
						if s.Insert(tid, key) {
							ins++
						}
					default:
						if s.Remove(tid, key) {
							rem++
						}
					}
				}
				s.Finish(tid)
				succIns.Add(ins)
				succRem.Add(rem)
			}(t)
		}
		wg.Wait()
		elapsed := time.Since(start)
		total := float64(w.OpsPerThread) * float64(cfg.Threads)
		mops = append(mops, total/elapsed.Seconds()/1e6)

		want := prefillCount + succIns.Load() - succRem.Load()
		if got := int64(len(s.Snapshot())); got != want {
			return res, fmt.Errorf("%s: balance violated after trial %d: |set|=%d want %d",
				s.Name(), trial, got, want)
		}
		if trial == cfg.Trials-1 {
			res.fillStats(s, total)
		}
	}
	res.MopsPerSec, res.RelStddev = meanRel(mops)
	return res, nil
}

func (r *Result) fillStats(s sets.Set, totalOps float64) {
	if tm, ok := s.(sets.TMStatsReporter); ok && totalOps > 0 {
		st := tm.TMStats()
		r.AbortsPerOp = float64(st.TotalAborts()) / totalOps
		r.SerialPerOp = float64(st.SerialCommits) / totalOps
		r.ReadConflictsPerOp = float64(st.Aborts[stm.CauseReadConflict]) / totalOps
		r.ValidationsPerOp = float64(st.Aborts[stm.CauseValidation]) / totalOps
		r.WriteLocksPerOp = float64(st.Aborts[stm.CauseWriteLock]) / totalOps
		r.CapacityPerOp = float64(st.Aborts[stm.CauseCapacity]) / totalOps
	}
	if rr, ok := s.(sets.ReclaimReporter); ok {
		st := rr.ReclaimStats()
		r.DeferredPeak, r.AvgDelayOps = st.PeakDeferred, st.AvgDelayOps()
	}
	if or, ok := s.(sets.ObsReporter); ok {
		if d := or.ObsDomain(); d != nil {
			if h, ok := d.Snapshot().Hist(obs.HistReclaimOps); ok {
				r.ReclaimP50Ops, r.ReclaimP99Ops, r.ReclaimMaxOps = h.P50, h.P99, h.Max
			}
		}
	}
}

func meanRel(xs []float64) (mean, rel float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 || mean == 0 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss/float64(len(xs)-1)) / mean
}
