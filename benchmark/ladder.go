package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hohtx/internal/stm"
)

// spanEvery samples one burst in 64 for spans.
const spanEvery = 64

// tenths is how many parts a ladder rung is timed in; its figure is the
// median part.
const tenths = 10

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans of one burst share Req; Parent is
// the ID of the enclosing span, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
	Rung   string `json:"rung"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog collects one driver's spans in memory; they are written out when
// the traced run ends.
type spanLog struct {
	rung  string
	conn  int
	spans []span
}

// burst records a sampled burst: the whole step, and inside it the
// generate-and-render phase, the call into the layer under test, and the
// oracle check. The layer call's bounds are the target's own stamps.
func (l *spanLog) burst(d *driver, i int, t0, t1 int64) {
	req := uint64(l.conn)<<32 | uint64(i)
	id := len(l.spans) + 1
	add := func(parent int, name string, from, to int64) {
		l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Req: req, Rung: l.rung, Name: name, Start: from, End: to})
	}
	sent, done := d.b.sent, d.b.done[len(d.b.done)-1]
	add(0, "burst", t0, t1)
	add(id, "client.generate", t0, sent)
	add(id, l.rung+".call", sent, done)
	add(id, "client.check", done, t1)
}

// appendSpans appends src to dst, shifting src's IDs (which start at 1) so
// they stay unique in the merged log.
func appendSpans(dst, src []span) []span {
	base := len(dst)
	for _, sp := range src {
		sp.ID += base
		if sp.Parent != 0 {
			sp.Parent += base
		}
		dst = append(dst, sp)
	}
	return dst
}

// rungRun is what one rung of the ladder measured.
type rungRun struct {
	Name    string  `json:"name"`
	Shards  int     `json:"shards"`
	Ops     uint64  `json:"ops"`
	NsPerOp float64 `json:"ns_per_op"` // a caller's time per operation, over the median tenth of the rung
	WallNs  int64   `json:"wall_ns"`
	// Counts are the raw counters over the rung's operations, read through
	// the layers' public accessors: deltas, except the gauges
	// reclaim.peak_deferred and reclaim.leftover.
	Counts map[string]uint64 `json:"counts"`

	s         *session
	liveMean  float64 // node memory in use at the end of each tenth, averaged
	lat       hist
	sliceNs   [tenths]float64 // Σ over callers of the time each tenth of the rung took
	times     kindTimes
	spans     []span
	attempted uint64
	failed    uint64
	errs      []error
}

// counters reads every counter the ladder reports, through the layers'
// public accessors (TMStats, ReclaimStats, Pool.Stats) and the drivers'
// reply tallies.
func counters(s *session) map[string]uint64 {
	tm, rc := s.sharded.TMStats(), s.sharded.ReclaimStats()
	c := map[string]uint64{
		"stm.commits": tm.Commits, "stm.aborts": tm.TotalAborts(), "stm.serial": tm.SerialCommits, "stm.extensions": tm.Extensions,
		"reclaim.retired": rc.Retired, "reclaim.freed": rc.Freed, "reclaim.scans": rc.Scans, "reclaim.delay_ops": rc.DelayOpsSum,
	}
	for i := 0; i < s.sharded.ShardCount(); i++ {
		if r, ok := s.sharded.Shard(i).(interface{ TMStats() stm.Stats }); ok {
			c[fmt.Sprintf("shard%d.commits", i)] = r.TMStats().Commits
		}
	}
	for _, p := range s.pools {
		st := p.Stats()
		c["pool.leases"] += st.Leases
		c["pool.waits"] += st.Waits
		c["pool.wait_ns"] += st.WaitNs
		c["pool.affinity_hits"] += st.AffinityHits
		c["pool.rejections"] += st.Rejections
	}
	for _, d := range s.drivers {
		c["replies.set_ok"] += d.setOK
		for k, n := range d.gen.mix {
			c["mix."+kindNames[k]] += n
		}
	}
	return c
}

// mallocs is the number of heap objects the process has allocated so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// openRung builds one rung, prefills it, and arms its recorders. The
// counters are read once here; closeRung turns them into deltas.
func openRung(w *workload, seed uint64, name string, r rung, shards int, observe, traced bool) (*rungRun, error) {
	s, err := openSession(w, seed, r, shards, observe)
	if err != nil {
		return nil, err
	}
	s.deadline(300 * time.Second)
	if err := s.each((*driver).prefill); err != nil {
		s.finish()
		return nil, fmt.Errorf("rung %s: %w", name, err)
	}
	for c, d := range s.drivers {
		if traced {
			d.spans = &spanLog{rung: name, conn: c}
		}
		if d.wire {
			d.lat = new(hist)
		}
		if st, ok := d.tgt.(*setTarget); ok {
			st.times = new(kindTimes)
		}
	}
	return &rungRun{Name: name, Shards: shards, s: s, Counts: counters(s)}, nil
}

// runTenth replays the next tenth of the rung's operation stream: bursts
// bursts per caller, the t-th such part.
func (r *rungRun) runTenth(t, bursts int) error {
	m0, t0 := mallocs(), nowNs()
	took := make([]int64, len(r.s.drivers))
	err := r.s.each(func(d *driver) error {
		start := nowNs()
		err := d.runBursts(t*bursts, bursts)
		took[d.gen.conn] = nowNs() - start
		return err
	})
	if err != nil {
		return fmt.Errorf("rung %s: %w", r.Name, err)
	}
	r.WallNs += nowNs() - t0
	r.Counts["go.mallocs"] += mallocs() - m0
	for _, ns := range took {
		r.sliceNs[t] += float64(ns)
	}
	r.Ops += uint64(bursts * r.s.w.opsPerBurst() * len(r.s.drivers))
	if r.s.st != nil {
		r.liveMean += float64(r.s.sharded.LiveNodes()-r.s.st.sentinels) / tenths
	}
	return nil
}

// closeRung turns the counters into deltas, gathers what the drivers
// recorded, and verifies and tears down the rung's session.
func (r *rungRun) closeRung() {
	s := r.s
	for name, v := range counters(s) {
		r.Counts[name] = v - r.Counts[name]
	}
	rc := s.sharded.ReclaimStats()
	r.Counts["reclaim.peak_deferred"], r.Counts["reclaim.leftover"] = rc.PeakDeferred, rc.Leftover
	for _, d := range s.drivers {
		if d.lat != nil {
			r.lat.merge(d.lat)
		}
		if st, ok := d.tgt.(*setTarget); ok {
			r.times.add(st.times)
		}
		if d.spans != nil {
			r.spans = appendSpans(r.spans, d.spans.spans)
		}
	}
	// The median tenth, as the end-to-end run takes the median pair: a
	// burst of interference from the host drops out of the rung's figure.
	r.NsPerOp = median(r.sliceNs[:]) / (float64(r.Ops) / tenths)
	r.errs = s.finish()
	r.attempted, r.failed = s.counts()
	r.s = nil
}

func (k *kindTimes) add(o *kindTimes) {
	for i := range k.ns {
		k.ns[i] += o.ns[i]
		k.n[i] += o.n[i]
	}
	k.apply.ns += o.apply.ns
	k.apply.ops += o.apply.ops
	k.scan.ns += o.scan.ns
	k.scan.keys += o.scan.keys
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ladderSelf turns the rungs' caller times into per-layer self times by
// subtracting each rung from the one above it. The self times telescope:
// they sum to the top rung's figure exactly, and the socket's share is the
// named residual (kernel + scheduler), not something measured directly.
func ladderSelf(sets1, setsN, pool, mem, tcp float64) map[string]float64 {
	return map[string]float64{
		"sets.ns_per_op":        sets1,
		"shard.self_ns_per_op":  setsN - sets1,
		"pool.self_ns_per_op":   pool - setsN,
		"wire.self_ns_per_op":   mem - pool,
		"socket.self_ns_per_op": tcp - mem,
	}
}

// runLadder is the traced run. It replays the same generated operation
// stream (a fixed count, so same seed ⇒ same operations and mix) up the
// ladder:
//
//	(a) sets.Set methods called directly          — on one shard, then on w.shards
//	(b) the same inside serve.Pool leases
//	(c) through serve.Server on an in-memory listener
//	(d) through serve.Server over loopback TCP    — the end-to-end configuration
//
// then repeats (d) untraced (for trace.overhead_pct) and with the obs
// transaction domains attached (for obs.enabled_ns_per_op), and runs the
// unit-cost probes. Spans and raw counts go to <dir>/trace-<workload>.json.
func runLadder(w *workload, seed uint64, p params) (*result, error) {
	res := &result{metrics: map[string]metric{}, notes: map[string]metric{}}
	calib := calibrate(p.calib)

	type step struct {
		name    string
		r       rung
		shards  int
		observe bool
		traced  bool
	}
	steps := []step{
		{"sets", rungSets, w.shards, false, true},
		{"pool", rungPool, w.shards, false, true},
		{"mem", rungMem, w.shards, false, true},
		{"tcp", rungTCP, w.shards, false, true},
		{"tcp-untraced", rungTCP, w.shards, false, false},
		{"tcp-obs", rungTCP, w.shards, true, true},
	}
	if w.shards > 1 {
		steps = append([]step{{"sets-1shard", rungSets, 1, false, true}}, steps...)
	}
	// Every rung is opened first and the rungs then take turns, tenth by
	// tenth: sets, pool, mem, tcp, …, sets, pool, …. The host's speed drifts
	// over seconds to minutes, so rungs run one after another would differ
	// by the drift; taking turns, every rung's median tenth has seen the
	// same phases, and adjacent rungs subtract to layers, not to weather.
	runs := map[string]*rungRun{}
	var order []*rungRun
	closeAll := func() {
		for _, run := range order {
			if run.s != nil {
				run.closeRung()
			}
			res.attempted += run.attempted
			res.failed += run.failed
			res.errs = append(res.errs, run.errs...)
		}
	}
	for _, st := range steps {
		run, err := openRung(w, seed, st.name, st.r, st.shards, st.observe, st.traced)
		if err != nil {
			closeAll()
			return nil, err
		}
		runs[st.name] = run
		order = append(order, run)
	}
	bursts := max(1, p.ladderOps/w.opsPerBurst()/tenths)
	for t := 0; t < tenths; t++ {
		for _, run := range order {
			if err := run.runTenth(t, bursts); err != nil {
				closeAll()
				return nil, err
			}
		}
	}
	closeAll()
	sets1 := runs["sets"]
	if w.shards > 1 {
		sets1 = runs["sets-1shard"]
	}
	tcp, plain, observed := runs["tcp"], runs["tcp-untraced"], runs["tcp-obs"]
	nOps := float64(tcp.Ops)

	m := map[string]metric{}
	for name, v := range ladderSelf(sets1.NsPerOp, runs["sets"].NsPerOp, runs["pool"].NsPerOp, runs["mem"].NsPerOp, tcp.NsPerOp) {
		m[name] = metric{v, "ns"}
	}
	clock := clockNs()
	kt := &sets1.times
	perKind := func(k opKind) float64 {
		if kt.n[k] == 0 {
			return 0
		}
		return float64(kt.ns[k])/float64(kt.n[k]) - clock
	}
	m["sets.ns_per_lookup"] = metric{perKind(opGet), "ns"}
	m["sets.ns_per_insert"] = metric{perKind(opSet), "ns"}
	m["sets.ns_per_remove"] = metric{perKind(opDel), "ns"}
	m["sets.ns_per_apply_op"] = metric{ratio(float64(kt.apply.ns), float64(kt.apply.ops)), "ns"}
	m["sets.ns_per_scan_key"] = metric{ratio(float64(kt.scan.ns), float64(kt.scan.keys)), "ns"}

	c := func(name string) float64 { return float64(tcp.Counts[name]) }
	var maxCommits float64
	for i := 0; i < w.shards; i++ {
		maxCommits = max(maxCommits, c(fmt.Sprintf("shard%d.commits", i)))
	}
	commits := c("stm.commits")
	m["shard.imbalance"] = metric{max(0, ratio(maxCommits*float64(w.shards), commits)-1), "ratio"}

	m["pool.leases_per_op"] = metric{c("pool.leases") / nOps, "count"}
	m["pool.waits_per_lease"] = metric{ratio(c("pool.waits"), c("pool.leases")), "ratio"}
	m["pool.wait_ns_per_wait"] = metric{ratio(c("pool.wait_ns"), c("pool.waits")), "ns"}
	m["pool.affinity_hit_ratio"] = metric{ratio(c("pool.affinity_hits"), c("pool.leases")), "ratio"}
	m["pool.rejections"] = metric{c("pool.rejections"), "count"}

	m["stm.commits_per_op"] = metric{commits / nOps, "count"}
	m["stm.aborts_per_commit"] = metric{ratio(c("stm.aborts"), commits), "ratio"}
	m["stm.serial_per_commit"] = metric{ratio(c("stm.serial"), commits), "ratio"}
	m["stm.extensions_per_commit"] = metric{ratio(c("stm.extensions"), commits), "ratio"}

	m["arena.allocs_per_op"] = metric{c("replies.set_ok") / nOps, "count"}
	m["arena.live_nodes_mean"] = metric{tcp.liveMean, "count"}

	m["reclaim.retired_per_op"] = metric{c("reclaim.retired") / nOps, "count"}
	m["reclaim.scans_per_kretire"] = metric{ratio(c("reclaim.scans")*1000, c("reclaim.retired")), "count"}
	m["reclaim.peak_deferred"] = metric{c("reclaim.peak_deferred"), "count"}
	m["reclaim.avg_delay_ops"] = metric{ratio(c("reclaim.delay_ops"), c("reclaim.freed")), "count"}
	m["reclaim.leftover"] = metric{c("reclaim.leftover"), "count"}

	// Heap objects per operation on the untraced TCP rung: the caller
	// allocates nothing in steady state, so these are the server's. (Not the
	// in-memory rung: net.Pipe allocates a timer per read deadline.)
	m["wire.allocs_per_op"] = metric{float64(plain.Counts["go.mallocs"]) / float64(plain.Ops), "count"}
	m["obs.enabled_ns_per_op"] = metric{observed.NsPerOp - tcp.NsPerOp, "ns"}
	m["trace.overhead_pct"] = metric{(tcp.NsPerOp - plain.NsPerOp) / plain.NsPerOp * 100, "%"}
	m["client.p99_us"] = metric{plain.lat.quantile(0.99) / 1e3, "us"}
	m["client.p999_us"] = metric{plain.lat.quantile(0.999) / 1e3, "us"}
	m["client.samples"] = metric{float64(plain.lat.n), "count"}
	m["client.window_rel_iqr"] = metric{relIQR(plain.sliceNs[:]), "ratio"}
	m["host.calib_ns_per_kiter"] = metric{calib, "ns"}

	probes := runProbes()
	for name, v := range probes {
		m[name] = metric{v, "ns"}
	}
	res.metrics = m
	for k := range kindNames {
		res.notes["mix."+kindNames[k]] = metric{c("mix." + kindNames[k]), "count"}
	}

	if err := writeTrace(p.dir, w, seed, order, m); err != nil {
		return nil, err
	}
	return res, nil
}

// writeTrace writes the spans, the rungs and every metric of a traced run.
func writeTrace(dir string, w *workload, seed uint64, rungs []*rungRun, m map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var spans []span
	for _, r := range rungs {
		spans = appendSpans(spans, r.spans)
	}
	doc := struct {
		Workload string            `json:"workload"`
		Seed     uint64            `json:"seed"`
		Rungs    []*rungRun        `json:"rungs"`
		Metrics  map[string]metric `json:"metrics"`
		Spans    []span            `json:"spans"`
	}{w.name, seed, rungs, m, spans}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+w.name+".json"), buf, 0o644)
}
