package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// metric is one named reading with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation reports.
type result struct {
	metrics   map[string]metric
	notes     map[string]metric // printed, but not part of the JSON contract
	attempted uint64
	failed    uint64
	errs      []error
}

// setUp performs one complete set-up and returns the ready session: build
// shards, pools and server, listen, dial every connection, prefill half the
// key range over the wire in seeded-shuffled order.
func setUp(w *workload, seed uint64) (*session, error) {
	s, err := openSession(w, seed, rungTCP, w.shards, false)
	if err != nil {
		return nil, err
	}
	s.deadline(60 * time.Second)
	if err := s.each((*driver).prefill); err != nil {
		s.finish()
		return nil, err
	}
	return s, nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveSampler wakes every 5 ms and reads the memory books: node memory in
// use (less the structures' sentinels) over keys present. 1.0 is the paper's
// claim: nothing retired is waiting. It keeps the peak per slot of the
// window.
type liveSampler struct {
	peak []float64
}

func (ls *liveSampler) run(s *session, start, slot int64, stop <-chan struct{}) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		idx := (nowNs() - start) / slot
		if idx < 0 || idx >= int64(len(ls.peak)) {
			continue
		}
		// Len first: an insert allocates its node before the server counts
		// the key, so this order can only overstate the ratio, never hide
		// a deferred node.
		keys := s.st.srv.Len()
		live := float64(s.sharded.LiveNodes() - s.st.sentinels)
		if keys <= 0 {
			continue
		}
		if r := live / float64(keys); r > ls.peak[idx] {
			ls.peak[idx] = r
		}
	}
}

// runEndToEnd is the untraced run: calibrate the host, set up (many
// times), warm up, measure the window, verify the final state.
func runEndToEnd(w *workload, seed uint64, p params) (*result, error) {
	res := &result{metrics: map[string]metric{}, notes: map[string]metric{}}
	res.notes["host.calib_ns_per_kiter"] = metric{calibrate(p.calib), "ns"}

	ref, err := openReference(w)
	if err != nil {
		return nil, err
	}
	defer ref.close()

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	// Set up again and again for p.setup, a slice of the reference between
	// every two: a set-up of milliseconds is mostly memory management and
	// goroutine wake-ups, so one reading says little and the median of
	// dozens repeats. Every stack but the last is verified and torn down;
	// the last is measured. The heap is collected after each teardown,
	// outside the timed part: how long a forced collection takes is decided
	// by when the runtime's background workers wake (0.3 to 28 ms for the
	// same heap), and left uncollected, the old stack would make the
	// collector run inside the next set-up.
	var setupS, setupRaw []float64
	var s *session
	refLat, err := ref.latencyFor(p.setupRef)
	if err != nil {
		return nil, err
	}
	for begun := time.Now(); ; {
		t0 := time.Now()
		if s, err = setUp(w, seed); err != nil {
			return nil, err
		}
		el := time.Since(t0).Seconds()
		next, err := ref.latencyFor(p.setupRef)
		if err != nil {
			res.absorb(s)
			return nil, err
		}
		setupRaw = append(setupRaw, el)
		setupS = append(setupS, el*w.refLatUs/((refLat+next)/2))
		refLat = next
		if n := len(setupS); n >= maxSetups || (n >= minSetups && time.Since(begun) >= p.setup) {
			break
		}
		res.absorb(s)
		runtime.GC()
	}
	s.deadline(60 * time.Second)
	if err := s.each(func(d *driver) error { return d.runBursts(0, p.warmOps/w.opsPerBurst()) }); err != nil {
		res.absorb(s)
		res.errs = append(res.errs, err)
		return res, nil
	}
	runtime.GC()

	pair := int64(p.seconds * 1e9 / pairs)
	start := nowNs()
	recs := make([]*windowRec, len(s.drivers))
	for c, d := range s.drivers {
		recs[c] = &windowRec{start: start, pair: pair}
		d.rec, d.ref = recs[c], ref.callers[c]
	}
	sampler := liveSampler{peak: make([]float64, pairs)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sampler.run(s, start, pair, stop)
	}()
	commits := s.sharded.TMStats().Commits
	s.deadline(time.Duration(p.seconds*float64(time.Second)) + 60*time.Second)
	err = s.each((*driver).runWindow)
	close(stop)
	wg.Wait()
	if err != nil {
		res.absorb(s)
		res.errs = append(res.errs, err)
		return res, nil
	}
	commits = s.sharded.TMStats().Commits - commits

	// Per pair: the work slice's readings, scaled by the reference slices on
	// either side of it (the first pair has only the one after): times and
	// rates by the reference's median latency, CPU per operation by the
	// reference's CPU per request.
	refOf := func(i int) (latUs, cpuUs float64) {
		var n int
		for _, rec := range recs {
			n += rec.ref[i].n
			latUs += rec.ref[i].p50 / 1e3 / float64(len(recs))
		}
		return latUs, ratio(recs[0].refCPUS[i]*1e6, float64(n))
	}
	var rate, rawRate, p50, rawP50, cpu, rawCPU, refLats, refCPUs []float64
	var total uint64
	all := new(hist)
	for _, rec := range recs {
		all.merge(&rec.all)
	}
	for i := 0; i < pairs; i++ {
		var ops uint64
		var r, lat float64
		for _, rec := range recs {
			ops += rec.ops[i]
			r += ratio(float64(rec.ops[i]), float64(rec.workNs[i])/1e9)
			lat += rec.p50[i] / 1e3 / float64(len(recs))
		}
		total += ops
		refLat, refCPU := refOf(i)
		if i > 0 {
			l0, c0 := refOf(i - 1)
			refLat, refCPU = (refLat+l0)/2, (refCPU+c0)/2
		}
		slow := refLat / w.refLatUs // > 1 when the host is slower than usual
		c := ratio(recs[0].cpuS[i]*1e6, float64(ops))
		refLats, refCPUs = append(refLats, refLat), append(refCPUs, refCPU)
		rawRate, rate = append(rawRate, r), append(rate, r*slow)
		rawP50, p50 = append(rawP50, lat), append(p50, lat/slow)
		rawCPU, cpu = append(rawCPU, c), append(cpu, c*ratio(w.refCPUUs, refCPU))
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	res.metrics["setup_s"] = metric{median(setupS), "s"}
	res.metrics["ops_per_s"] = metric{median(rate), "1/s"}
	res.metrics["p50_us"] = metric{median(p50), "us"}
	res.metrics["cpu_us_per_op"] = metric{median(cpu), "us"}
	res.metrics["live_peak_ratio"] = metric{median(sampler.peak), "ratio"}
	res.metrics["heap_live_mb"] = metric{(float64(ms.HeapAlloc) - float64(base.HeapAlloc)) / (1 << 20), "MB"}
	res.metrics["commits_per_op"] = metric{ratio(float64(commits), float64(total)), "count"}
	// What the clock read before the reference scaled it, and what says how
	// far to trust the run.
	res.notes["raw.setup_s"] = metric{median(setupRaw), "s"}
	res.notes["raw.setups"] = metric{float64(len(setupRaw)), "count"}
	res.notes["raw.ops_per_s"] = metric{median(rawRate), "1/s"}
	res.notes["raw.p50_us"] = metric{median(rawP50), "us"}
	res.notes["raw.cpu_us_per_op"] = metric{median(rawCPU), "us"}
	res.notes["host.ref_p50_us"] = metric{median(refLats), "us"}
	res.notes["host.ref_cpu_us"] = metric{median(refCPUs), "us"}
	res.notes["client.window_rel_iqr"] = metric{relIQR(rate), "ratio"}
	res.notes["raw.window_rel_iqr"] = metric{relIQR(rawRate), "ratio"}
	res.notes["client.p99_us"] = metric{all.quantile(0.99) / 1e3, "us"}
	res.notes["client.samples"] = metric{float64(all.n), "count"}
	for k, n := range mixOf(s) {
		res.notes["mix."+kindNames[k]] = metric{float64(n), "count"}
	}
	res.absorb(s)
	return res, nil
}

// A run sets up at least minSetups times, so that there is a median, and at
// most maxSetups.
const (
	minSetups = 5
	maxSetups = 60
)

// absorb finishes a session and folds its counts and check failures into
// the result.
func (r *result) absorb(s *session) {
	r.errs = append(r.errs, s.finish()...)
	a, f := s.counts()
	r.attempted += a
	r.failed += f
}

// mixOf sums the operation mix the session's generators have drawn.
func mixOf(s *session) [numKinds]uint64 {
	var mix [numKinds]uint64
	for _, d := range s.drivers {
		for k, n := range d.gen.mix {
			mix[k] += n
		}
	}
	return mix
}

// calibrate times a fixed-shape xorshift spin (half a second in a real
// run) and returns ns per thousand iterations. It depends only on the
// host, so a run whose calibration is off was disturbed before it measured
// anything.
func calibrate(d time.Duration) float64 {
	const chunk = 100_000
	x := uint64(88172645463325252)
	iters := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		for i := 0; i < chunk; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		iters += chunk
	}
	el := time.Since(t0)
	sink += x
	return float64(el.Nanoseconds()) / float64(iters) * 1000
}

// sink keeps the results of timed loops live.
var sink uint64
