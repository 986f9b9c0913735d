// Command hohload is the load generator for cmd/hohserver. By default it
// runs closed-loop: a configurable number of connections, each keeping a
// fixed number of pipelined requests in flight, drawing keys uniformly
// from a range with a configurable read ratio. With -rate it runs
// open-loop instead: requests are scheduled on a fixed cadence summing to
// the target rate across connections, each connection's writer sends on
// schedule whether or not earlier replies have arrived, and latency is
// measured from each request's *intended* send time — so a server stall
// shows up as the queueing delay a real client would suffer, not as a
// conveniently paused load generator (the coordinated-omission trap).
//
// Either way it reports throughput and client-observed latency
// percentiles, and samples the server's INFO line throughout the run to
// verify the live-node count stays flat (precise reclamation observed
// from outside the process). It is for poking at a server and for the
// recipes in EXPERIMENTS.md; changes are gated with benchmark/ (aa.py).
//
// Usage:
//
//	hohload -addr 127.0.0.1:7070 -conns 4 -depth 8 -reads 50 -ops 20000
//	hohload -addr 127.0.0.1:7070 -rate 20000 -ops 20000   # open loop, 20k req/s
//	hohload -addr 127.0.0.1:7070 -batch 64                # MULTI frames of 64 ops
//	hohload -addr 127.0.0.1:7070 -cmd 'SET 42;GET 42;LEN;DEL 42;LEN'
//
// With -batch N > 1 the same op stream is framed as MULTI batches of N
// ops each; -ops still counts ops, -depth counts frames in flight, and
// throughput stays per-op so batch sizes compare directly. Latency is
// reported both per batch and per op. In open-loop runs the cadence is
// still per-op (a frame is due when its last op is due) and each op's
// latency is measured from its own intended send time — an op that sat
// waiting for its frame to fill is charged that wait, so batching cannot
// hide queueing delay. The run also reports the server's serial-fallback
// and abort rates per op from INFO counter deltas — the measured face of
// the capacity cliff when sweeping -batch (see EXPERIMENTS.md).
//
// With -scanfrac P > 0 that percentage of the request stream becomes
// ASCEND scans of up to -scanlen keys each (drawn from the same key
// range), measuring range-scan/point-op interference. A scan's latency
// runs from its intended send time to its END terminator. Scans require a
// server whose INFO advertises scan support and are incompatible with
// -batch.
//
// When the server runs with -obs it advertises the endpoint's bound
// address in INFO as obs=<addr>, and hohload auto-discovers it — an
// explicit -obsaddr is only needed to override. The summary then gains
// the server's heap allocations per op and GC cycles over the measured
// run, and a tail-latency forensics line: the server-side slowlog's entry
// count, its worst request's total and dominant phase, and the key that
// caused the most aborts per the hot-key sketch rollup.
//
// The -cmd form is a one-shot client: it sends the semicolon-separated
// requests as one pipeline, prints each reply, and exits — the quickest
// way to poke at a running server without netcat. END-framed replies
// (ASCEND scans, SLOWLOG dumps) are streamed through their terminator.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"hohtx/internal/obs"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7070", "server address")
	flag.IntVar(&cfg.conns, "conns", 4, "concurrent connections")
	flag.IntVar(&cfg.depth, "depth", 8, "pipelined requests in flight per connection")
	flag.Uint64Var(&cfg.keys, "keys", 1024, "key range (keys drawn uniformly from [1, keys])")
	flag.IntVar(&cfg.reads, "reads", 50, "percent of requests that are GET")
	flag.IntVar(&cfg.ops, "ops", 50_000, "requests per connection")
	flag.Float64Var(&cfg.rate, "rate", 0, "open-loop mode: target ops/sec across all connections (0 = closed loop)")
	flag.IntVar(&cfg.batch, "batch", 1, "ops per MULTI frame (1 = plain single-key verbs)")
	flag.IntVar(&cfg.scanfrac, "scanfrac", 0, "percent of requests that are ASCEND range scans")
	flag.IntVar(&cfg.scanlen, "scanlen", 64, "keys per ASCEND scan (with -scanfrac)")
	flag.StringVar(&cfg.obsAddr, "obsaddr", "", "server obs endpoint (hohserver -obs); default: the one INFO advertises")
	flag.Uint64Var(&cfg.seed, "seed", 20170724, "workload seed")
	cmd := flag.String("cmd", "", "one-shot mode: send these ';'-separated requests and print the replies")
	flag.Parse()

	if *cmd != "" {
		if err := oneShot(os.Stdout, cfg.addr, *cmd); err != nil {
			fmt.Fprintln(os.Stderr, "hohload:", err)
			os.Exit(1)
		}
		return
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "hohload:", err)
		os.Exit(2)
	}
	rep, err := run(&cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hohload:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, &cfg)
}

// validate rejects parameter combinations no run can honour, and trims
// ops to whole frames so every frame carries exactly batch ops.
func (cfg *config) validate() error {
	switch {
	case cfg.depth < 1 || cfg.conns < 1 || cfg.keys < 1 || cfg.batch < 1:
		return fmt.Errorf("-conns, -depth, -keys and -batch must be positive")
	case cfg.batch > 1 && cfg.ops/cfg.batch < 1:
		return fmt.Errorf("-ops must cover at least one -batch frame")
	case cfg.scanfrac < 0 || cfg.scanfrac > 100 || (cfg.scanfrac > 0 && cfg.scanlen < 1):
		return fmt.Errorf("-scanfrac must be in [0,100] and -scanlen positive")
	case cfg.scanfrac > 0 && cfg.batch > 1:
		// A MULTI frame's body admits only single-key verbs; a scan inside
		// a frame has no defined reply framing.
		return fmt.Errorf("-scanfrac is incompatible with -batch > 1")
	}
	cfg.ops = cfg.ops / cfg.batch * cfg.batch
	return nil
}

// report is one finished run.
type report struct {
	elapsed    time.Duration
	m          *meters
	base, info serverInfo // the first INFO sample; the envelope through the last
	obsAddr    string     // cfg.obsAddr, or the one INFO advertised
	gc         obs.GCStats
	gcOK       bool // gc is the server's runtime-gc delta over the measured run
	fz         forensics
}

// run prefills half the key range (so the live-node envelope reflects
// steady state, not ramp-up), then drives cfg.conns connections while a
// monitor samples INFO: variant and slot count for the report, the
// live-node envelope for the flatness check.
func run(cfg *config) (*report, error) {
	if err := prefill(cfg.addr, cfg.keys, cfg.seed); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	mon, err := startMonitor(cfg.addr)
	if err != nil {
		return nil, err
	}
	rep := &report{m: newMeters(), base: mon.base, obsAddr: cfg.obsAddr}
	if rep.obsAddr == "" {
		rep.obsAddr = mon.base.obsAddr
	}
	// GC-pressure baseline, sampled before the first measured request so
	// the deltas cover the measured window (warmup and monitor dial
	// excluded). Best effort: a server without -obs has no panel.
	var gcBase obs.GCStats
	if rep.obsAddr != "" {
		gcBase, err = fetchGC(rep.obsAddr)
		rep.gcOK = err == nil
	}

	// Open loop: the cadence is fixed before the first send, and every
	// connection schedules against the same origin.
	var interval time.Duration
	start := time.Now()
	if cfg.rate > 0 {
		interval = time.Duration(float64(time.Second) / cfg.rate)
		start = start.Add(100 * time.Millisecond) // let every conn dial before the cadence begins
	}
	var wg sync.WaitGroup
	errs := make(chan error, cfg.conns)
	for c := 0; c < cfg.conns; c++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			if err := runConn(cid, cfg, start, interval, rep.m); err != nil {
				errs <- fmt.Errorf("conn %d: %w", cid, err)
			}
		}(c)
	}
	wg.Wait()
	rep.elapsed = time.Since(start)
	rep.info = mon.stop()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	if rep.gcOK {
		end, err := fetchGC(rep.obsAddr)
		rep.gcOK = err == nil
		rep.gc = obs.GCStats{Cycles: end.Cycles - gcBase.Cycles, AllocObjects: end.AllocObjects - gcBase.AllocObjects}
	}
	if rep.obsAddr != "" {
		// Best-effort decoration on a load report: a server built before the
		// slowlog existed should not fail the run.
		if rep.fz, err = fetchForensics(rep.obsAddr); err != nil {
			fmt.Fprintln(os.Stderr, "hohload: forensics:", err)
		}
	}
	return rep, nil
}

func (rep *report) print(w io.Writer, cfg *config) {
	info, m := rep.info, rep.m
	total := uint64(cfg.conns) * uint64(cfg.ops)
	achieved := float64(total) / rep.elapsed.Seconds()
	pcts := func(h *obs.Histogram) string {
		s := h.Snapshot()
		return fmt.Sprintf("p50=%s p90=%s p99=%s max=%s",
			time.Duration(s.P50), time.Duration(s.P90), time.Duration(s.P99), time.Duration(s.Max))
	}
	if cfg.rate > 0 {
		fmt.Fprintf(w, "hohload: %s (%d shard(s)), open loop at %.0f op/s, %d conns, batch %d, %d%% reads, %d keys\n",
			info.variant, info.shards, cfg.rate, cfg.conns, cfg.batch, cfg.reads, cfg.keys)
		fmt.Fprintf(w, "  %d ops in %s: offered %.0f op/s, achieved %.0f op/s\n",
			total, rep.elapsed.Round(time.Millisecond), cfg.rate, achieved)
		fmt.Fprintf(w, "  op latency (from intended send) %s\n", pcts(m.op))
	} else {
		fmt.Fprintf(w, "hohload: %s (%d shard(s)), %d conns × depth %d, batch %d, %d%% reads, %d keys\n",
			info.variant, info.shards, cfg.conns, cfg.depth, cfg.batch, cfg.reads, cfg.keys)
		fmt.Fprintf(w, "  %d ops in %s = %.4f Mops/s\n", total, rep.elapsed.Round(time.Millisecond), achieved/1e6)
		fmt.Fprintf(w, "  op latency %s\n", pcts(m.op))
	}
	if cfg.batch > 1 {
		fmt.Fprintf(w, "  batch latency %s (%d frames of %d ops)\n", pcts(m.frame), total/uint64(cfg.batch), cfg.batch)
	}
	if cfg.scanfrac > 0 {
		fmt.Fprintf(w, "  scan latency (to END) %s (%d scans of <=%d keys)\n", pcts(m.scan), m.scans.Load(), cfg.scanlen)
	}
	if dc, ds, da := info.commits-rep.base.commits, info.serial-rep.base.serial, info.aborts-rep.base.aborts; dc+ds > 0 {
		fmt.Fprintf(w, "  server tx over run: commits=%d serial=%d aborts=%d (serial/op=%.4f aborts/op=%.4f)\n",
			dc, ds, da, float64(ds)/float64(total), float64(da)/float64(total))
	}
	gets := m.gets.Load()
	fmt.Fprintf(w, "  mix: GET=%d (hit %.1f%%) SET=%d DEL=%d SCAN=%d\n",
		gets, 100*float64(m.hits.Load())/float64(max(gets, 1)), m.sets.Load(), m.dels.Load(), m.scans.Load())
	fmt.Fprintf(w, "  live nodes over run: [%d, %d] (spread %d, key range %d); deferred at end: %d\n",
		info.liveMin, info.liveMax, info.liveMax-info.liveMin, cfg.keys, info.deferred)
	if rep.gcOK {
		fmt.Fprintf(w, "  server GC over run: %.3f allocs/op, %d cycles\n",
			float64(rep.gc.AllocObjects)/float64(total), rep.gc.Cycles)
	}
	if rep.obsAddr != "" && cfg.obsAddr == "" {
		fmt.Fprintf(w, "  obs endpoint auto-discovered from INFO: %s\n", rep.obsAddr)
	}
	if fz := rep.fz; fz.slowCount > 0 {
		fmt.Fprintf(w, "  slowlog: %d entries, worst %s (%s-dominated)",
			fz.slowCount, time.Duration(fz.slowWorstNs), fz.slowWorstPhase)
		if fz.hotKeyAborts > 0 {
			fmt.Fprintf(w, "; hottest key by aborts: %d (%d aborts)", fz.hotKey, fz.hotKeyAborts)
		}
		fmt.Fprintln(w)
	}
}
