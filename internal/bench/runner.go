package bench

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"hohtx/internal/loadgen"
	"hohtx/internal/obs"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// tenths is how many turns a group's series take: each runs one tenth of
// its operations, then hands the host to the next series.
const tenths = 10

// Result is the measurement of one series in a group.
type Result struct {
	Series  string
	Window  int
	Threads int
	// MopsPerSec is total throughput in million operations per second over
	// the median tenth.
	MopsPerSec float64
	// Ratio is the median over tenths of this series' throughput over the
	// group baseline's in the same tenth; RatioIQR is q3 − q1 of those ten
	// ratios, and Ahead the number of tenths in which the series beat the
	// baseline. The baseline itself reads 1, 0 and 0.
	Ratio    float64
	RatioIQR float64
	Ahead    int
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

// member is one series of a group: its label, its window and an instance
// already prefilled to half the key range.
type member struct {
	label  string
	window int
	set    sets.Set
}

// turns is what one member's run keeps between its tenths.
type turns struct {
	state    []uint64 // each tid's splitmix state
	ins, rem int64    // successful inserts and removes, all tids
	mops     [tenths]float64
}

// measure runs a group: the members take turns, one tenth of the operations
// at a time, so host drift lands on every series alike, and each series is
// reported against the baseline member tenth by tenth. Every member runs the
// same operation streams. After the last tenth it checks each member's
// balance: the snapshot's size must equal prefill + successful inserts −
// successful removes.
func measure(group []member, base string, w Workload, threads int, seed int64) ([]Result, error) {
	b := slices.IndexFunc(group, func(m member) bool { return m.label == base })
	if b < 0 {
		return nil, fmt.Errorf("bench: the group lacks its baseline %s", base)
	}
	runs := make([]turns, len(group))
	for i := range runs {
		runs[i].state = make([]uint64, threads)
		for tid := range threads {
			runs[i].state[tid] = uint64(seed) + uint64(tid)*0x1234567 + 1
		}
	}
	for t := range tenths {
		for i, m := range group {
			runs[i].tenth(m.set, w, t)
		}
	}
	total := float64(w.OpsPerThread) * float64(threads)
	out := make([]Result, len(group))
	for i, m := range group {
		r := &runs[i]
		want := int64(w.KeyRange()/2) + r.ins - r.rem
		if got := int64(len(m.set.Snapshot())); got != want {
			return nil, fmt.Errorf("%s: balance violated: |set|=%d want %d", m.label, got, want)
		}
		ratios := make([]float64, tenths)
		res := Result{Series: m.label, Window: m.window, Threads: threads, MopsPerSec: quantile(r.mops[:], 0.5)}
		for t := range ratios {
			ratios[t] = r.mops[t] / runs[b].mops[t]
			if r.mops[t] > runs[b].mops[t] {
				res.Ahead++
			}
		}
		res.Ratio, res.RatioIQR = quantile(ratios, 0.5), quantile(ratios, 0.75)-quantile(ratios, 0.25)
		res.fillStats(m.set, total)
		out[i] = res
	}
	return out, nil
}

// tenth runs the t-th tenth of every tid's operations on s. A tid registers
// before its first tenth and finishes after its last.
func (r *turns) tenth(s sets.Set, w Workload, t int) {
	n := (t+1)*w.OpsPerThread/tenths - t*w.OpsPerThread/tenths
	mix := loadgen.Mix{Keys: w.KeyRange(), Reads: w.LookupPct}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for tid := range r.state {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if t == 0 {
				s.Register(tid)
			}
			state := r.state[tid]
			var ins, rem int64
			for range n {
				op, _ := mix.Draw(&state)
				switch op.Kind {
				case sets.OpLookup:
					s.Lookup(tid, op.Key)
				case sets.OpInsert:
					if s.Insert(tid, op.Key) {
						ins++
					}
				default:
					if s.Remove(tid, op.Key) {
						rem++
					}
				}
			}
			if t == tenths-1 {
				s.Finish(tid)
			}
			mu.Lock()
			r.state[tid] = state
			r.ins += ins
			r.rem += rem
			mu.Unlock()
		}()
	}
	wg.Wait()
	r.mops[t] = float64(n*len(r.state)) / time.Since(start).Seconds() / 1e6
}

// quantile is the q-quantile of xs, interpolating between order statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
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
