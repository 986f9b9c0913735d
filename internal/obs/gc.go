package obs

import (
	"math"
	"runtime/metrics"
)

// GC panel. The paper's repro is about *precise* reclamation — the arena
// keeps exact per-node books — so any Go GC activity on the serving path
// is measurement contamination, not background noise (DESIGN.md §15). The
// zero-allocation wire codec drives the steady state to no heap churn;
// this panel is the witness: a synthetic "runtime-gc" domain backed by
// runtime/metrics, appended to every Registry snapshot. Benchmark runs
// read it before and after the measured window, and the deltas
// (heap_allocs_objects → allocs_per_op, gc_cycles) land in bench cells.

// The runtime/metrics samples the panel reads.
const (
	gcCyclesMetric  = "/gc/cycles/total:gc-cycles"
	gcAllocsObjects = "/gc/heap/allocs:objects"
	gcAllocsBytes   = "/gc/heap/allocs:bytes"
	gcPausesMetric  = "/sched/pauses/total/gc:seconds"
)

// GCStats is the scalar part of the panel, for callers (cmd/hohload's
// report) that want deltas rather than an export surface.
type GCStats struct {
	Cycles       uint64 // completed GC cycles since process start
	AllocObjects uint64 // cumulative heap allocations, objects
	AllocBytes   uint64 // cumulative heap allocations, bytes
}

// ReadGCStats samples the runtime's cumulative GC counters.
func ReadGCStats() GCStats {
	samples := []metrics.Sample{
		{Name: gcCyclesMetric},
		{Name: gcAllocsObjects},
		{Name: gcAllocsBytes},
	}
	metrics.Read(samples)
	var st GCStats
	if samples[0].Value.Kind() == metrics.KindUint64 {
		st.Cycles = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		st.AllocObjects = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		st.AllocBytes = samples[2].Value.Uint64()
	}
	return st
}

// GCSnapshot renders the panel as a synthetic DomainSnapshot named
// "runtime-gc": three cumulative gauges plus the stop-the-world pause
// distribution mapped into the repo's log₂-nanosecond buckets. Mapping
// loses sub-bucket resolution (each runtime bucket's count lands at its
// upper edge, conservatively), but keeps every consumer — /metrics,
// /snapshot — working off one histogram shape.
func GCSnapshot() DomainSnapshot {
	st := ReadGCStats()
	s := DomainSnapshot{
		Name: "runtime-gc",
		Gauges: []GaugeSnapshot{
			{Name: "gc_cycles", Value: st.Cycles},
			{Name: "heap_allocs_objects", Value: st.AllocObjects},
			{Name: "heap_allocs_bytes", Value: st.AllocBytes},
		},
	}
	if h, ok := readPauseHist(); ok {
		s.Histograms = append(s.Histograms, h)
	}
	return s
}

// readPauseHist reads the GC pause Float64Histogram (seconds) and folds
// it into a HistSnapshot in nanoseconds.
func readPauseHist() (HistSnapshot, bool) {
	samples := []metrics.Sample{{Name: gcPausesMetric}}
	metrics.Read(samples)
	if samples[0].Value.Kind() != metrics.KindFloat64Histogram {
		return HistSnapshot{}, false
	}
	fh := samples[0].Value.Float64Histogram()
	s := HistSnapshot{Name: "gc_pause", Unit: "ns", Buckets: make([]uint64, NumBuckets)}
	for i, c := range fh.Counts {
		if c == 0 {
			continue
		}
		// Bucket i spans [Buckets[i], Buckets[i+1]); charge its count at
		// the upper edge in ns (conservative, like Quantile's estimate).
		edge := fh.Buckets[i+1]
		if math.IsInf(edge, +1) {
			edge = fh.Buckets[i]
		}
		ns := uint64(edge * 1e9)
		b := BucketOf(ns)
		s.Buckets[b] += c
		s.Count += c
		s.Sum += ns * c
		if ns > s.Max {
			s.Max = ns
		}
	}
	last := 0
	for b := range s.Buckets {
		if s.Buckets[b] != 0 {
			last = b + 1
		}
	}
	s.Buckets = s.Buckets[:last]
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s, true
}
