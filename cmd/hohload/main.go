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
// percentiles, samples the server's INFO line throughout the run to
// verify the live-node count stays flat (precise reclamation observed
// from outside the process), and can emit the same JSON shape as
// cmd/benchjson so server-mode numbers land in BENCH_<n>.json next to the
// in-process ones.
//
// Usage:
//
//	hohload -addr 127.0.0.1:7070 -conns 4 -depth 8 -reads 50 -ops 20000
//	hohload -addr 127.0.0.1:7070 -rate 20000 -ops 20000   # open loop, 20k req/s
//	hohload -addr 127.0.0.1:7070 -batch 64                # MULTI frames of 64 ops
//	hohload -addr 127.0.0.1:7070 -out BENCH_3.json
//	hohload -addr 127.0.0.1:7070 -out BENCH_4.json -append   # accumulate cells
//	hohload -addr 127.0.0.1:7070 -cmd 'SET 42;GET 42;LEN;DEL 42;LEN'
//
// With -batch N > 1 the same op stream is framed as MULTI batches of N
// ops each; -ops still counts ops, -depth counts frames in flight, and
// throughput stays per-op so batch sizes compare directly. Latency is
// reported both per batch and per op. In open-loop runs the cadence is
// still per-op (a frame is due when its last op is due) and each op's
// latency is measured from its own intended send time — an op that sat
// waiting for its frame to fill is charged that wait, so batching cannot
// hide queueing delay (the coordinated-omission trap, batch edition).
// The run also reports the server's serial-fallback and abort rates per
// op from INFO counter deltas — the measured face of the capacity cliff
// when sweeping -batch (see EXPERIMENTS.md).
//
// With -scanfrac P > 0 that percentage of the request stream becomes
// ASCEND scans of up to -scanlen keys each (drawn from the same key
// range), measuring range-scan/point-op interference. A scan's latency
// runs from its intended send time to its END terminator, so a scan that
// stalls the pipeline charges itself (and, open-loop, its queued
// successors) the full stall — coordinated-omission-safe in both loop
// modes. Scans require a server whose INFO advertises scan support and
// are incompatible with -batch. With -obsaddr pointing at the server's
// observability endpoint (hohserver -obs), the final summary cell also
// embeds the server-side histograms — including serve_ascend_ns,
// ascend_windows and ascend_renavigations — under domain-prefixed names.
//
// When the server runs with -obs it advertises the endpoint's bound
// address in INFO as obs=<addr>, and hohload auto-discovers it — an
// explicit -obsaddr is only needed to override. Either way the run's
// summary (and the -out cell) gains a tail-latency forensics block: the
// server-side slowlog's entry count, its worst request's total and
// dominant phase, and the key that caused the most aborts per the
// hot-key sketch rollup.
//
// The -cmd form is a one-shot client: it sends the semicolon-separated
// requests as one pipeline, prints each reply, and exits — the quickest
// way to poke at a running server without netcat. END-framed replies
// (ASCEND scans, SLOWLOG dumps) are streamed through their terminator.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hohtx/internal/bench"
	"hohtx/internal/obs"
	"hohtx/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "server address")
	conns := flag.Int("conns", 4, "concurrent connections")
	depth := flag.Int("depth", 8, "pipelined requests in flight per connection")
	keys := flag.Uint64("keys", 1024, "key range (keys drawn uniformly from [1, keys])")
	reads := flag.Int("reads", 50, "percent of requests that are GET")
	ops := flag.Int("ops", 50_000, "requests per connection")
	rate := flag.Float64("rate", 0, "open-loop mode: target ops/sec across all connections (0 = closed loop)")
	batch := flag.Int("batch", 1, "ops per MULTI frame (1 = plain single-key verbs)")
	scanfrac := flag.Int("scanfrac", 0, "percent of requests that are ASCEND range scans")
	scanlen := flag.Int("scanlen", 64, "keys per ASCEND scan (with -scanfrac)")
	obsAddr := flag.String("obsaddr", "", "server obs endpoint (hohserver -obs); embed its histograms in the -out cell")
	seed := flag.Uint64("seed", 20170724, "workload seed")
	warmup := flag.Bool("warmup", true, "prefill half the key range before measuring (so the live-node envelope reflects steady state, not ramp-up)")
	out := flag.String("out", "", "write a BENCH_<n>.json summary here (empty = report only)")
	appendOut := flag.Bool("append", false, "append the cell to an existing -out file instead of overwriting it")
	cmd := flag.String("cmd", "", "one-shot mode: send these ';'-separated requests and print the replies")
	flag.Parse()

	if *cmd != "" {
		oneShot(*addr, *cmd)
		return
	}
	if *depth < 1 || *conns < 1 || *keys < 1 || *batch < 1 {
		fmt.Fprintln(os.Stderr, "hohload: -conns, -depth, -keys and -batch must be positive")
		os.Exit(2)
	}
	if *batch > 1 && *ops / *batch < 1 {
		fmt.Fprintln(os.Stderr, "hohload: -ops must cover at least one -batch frame")
		os.Exit(2)
	}
	if *scanfrac < 0 || *scanfrac > 100 || (*scanfrac > 0 && *scanlen < 1) {
		fmt.Fprintln(os.Stderr, "hohload: -scanfrac must be in [0,100] and -scanlen positive")
		os.Exit(2)
	}
	if *scanfrac > 0 && *batch > 1 {
		// A MULTI frame's body admits only single-key verbs; a scan inside
		// a frame has no defined reply framing.
		fmt.Fprintln(os.Stderr, "hohload: -scanfrac is incompatible with -batch > 1")
		os.Exit(2)
	}
	// Whole frames only: trim the per-connection op count to a multiple of
	// the batch size so every frame carries exactly -batch ops.
	*ops = (*ops / *batch) * *batch

	// A balanced SET/DEL mix holds the set near half the key range, so
	// prefilling every other key puts the structure at steady state
	// before the first measured request.
	if *warmup {
		if err := prefill(*addr, *keys); err != nil {
			fmt.Fprintln(os.Stderr, "hohload: warmup:", err)
			os.Exit(1)
		}
	}

	// Sample the server's INFO line for the whole run: variant and slot
	// count for the report, and the live-node envelope for the flatness
	// check.
	mon, err := startMonitor(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hohload:", err)
		os.Exit(1)
	}

	// GC-pressure baseline: sample the server's runtime-gc panel before
	// the first measured request, so the cell's allocs_per_op and
	// gc_cycles are deltas over exactly the measured window (warmup and
	// monitor-dial churn excluded).
	gcAddr := *obsAddr
	if gcAddr == "" {
		gcAddr = mon.base.obsAddr
	}
	var gcBase obs.GCStats
	gcOK := false
	if gcAddr != "" {
		if st, err := fetchGC(gcAddr); err == nil {
			gcBase, gcOK = st, true
		}
	}

	hist := obs.NewHistogram("op_latency", "ns")
	batchHist := obs.NewHistogram("batch_latency", "ns")
	scanHist := obs.NewHistogram("scan_latency", "ns")
	var gets, sets, dels, hits, scans atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, *conns)
	// Open loop: the request cadence is fixed before the first send, and
	// every connection schedules against the same origin — request i of
	// connection c is *due* at start + (i×conns + c)×interval, and that
	// intended time (not the moment the writer got around to the socket)
	// is the latency clock's zero.
	var interval time.Duration
	start := time.Now()
	if *rate > 0 {
		interval = time.Duration(float64(time.Second) / *rate)
		start = start.Add(100 * time.Millisecond) // let every conn dial before the cadence begins
	}
	for c := 0; c < *conns; c++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			var err error
			switch {
			case *batch > 1 && *rate > 0:
				err = runConnOpenBatch(cid, *addr, *ops, *conns, *batch, interval, start, *keys, *reads, *seed,
					hist, batchHist, &gets, &sets, &dels, &hits)
			case *batch > 1:
				err = runConnBatch(cid, *addr, *ops, *depth, *batch, *keys, *reads, *seed,
					hist, batchHist, &gets, &sets, &dels, &hits)
			case *rate > 0:
				err = runConnOpen(cid, *addr, *ops, *conns, interval, start, *keys, *reads, *scanfrac, *scanlen, *seed,
					hist, scanHist, &gets, &sets, &dels, &hits, &scans)
			default:
				err = runConn(cid, *addr, *ops, *depth, *keys, *reads, *scanfrac, *scanlen, *seed,
					hist, scanHist, &gets, &sets, &dels, &hits, &scans)
			}
			if err != nil {
				errs <- fmt.Errorf("conn %d: %w", cid, err)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		fmt.Fprintln(os.Stderr, "hohload:", err)
		os.Exit(1)
	}
	info := mon.stop()

	total := uint64(*conns) * uint64(*ops)
	mops := float64(total) / elapsed.Seconds() / 1e6
	achieved := float64(total) / elapsed.Seconds()
	snap := hist.Snapshot()
	if *rate > 0 {
		fmt.Printf("hohload: %s (%d shard(s)), open loop at %.0f op/s, %d conns, batch %d, %d%% reads, %d keys\n",
			info.variant, info.shards, *rate, *conns, *batch, *reads, *keys)
		fmt.Printf("  %d ops in %s: offered %.0f op/s, achieved %.0f op/s\n",
			total, elapsed.Round(time.Millisecond), *rate, achieved)
		fmt.Printf("  op latency (from intended send) p50=%s p90=%s p99=%s max=%s\n",
			time.Duration(snap.P50), time.Duration(snap.P90), time.Duration(snap.P99), time.Duration(snap.Max))
	} else {
		fmt.Printf("hohload: %s (%d shard(s)), %d conns × depth %d, batch %d, %d%% reads, %d keys\n",
			info.variant, info.shards, *conns, *depth, *batch, *reads, *keys)
		fmt.Printf("  %d ops in %s = %.4f Mops/s\n", total, elapsed.Round(time.Millisecond), mops)
		fmt.Printf("  op latency p50=%s p90=%s p99=%s max=%s\n",
			time.Duration(snap.P50), time.Duration(snap.P90), time.Duration(snap.P99), time.Duration(snap.Max))
	}
	bsnap := batchHist.Snapshot()
	if *batch > 1 {
		fmt.Printf("  batch latency p50=%s p90=%s p99=%s max=%s (%d frames of %d ops)\n",
			time.Duration(bsnap.P50), time.Duration(bsnap.P90), time.Duration(bsnap.P99),
			time.Duration(bsnap.Max), bsnap.Count, *batch)
	}
	ssnap := scanHist.Snapshot()
	if *scanfrac > 0 {
		fmt.Printf("  scan latency (to END) p50=%s p90=%s p99=%s max=%s (%d scans of <=%d keys)\n",
			time.Duration(ssnap.P50), time.Duration(ssnap.P90), time.Duration(ssnap.P99),
			time.Duration(ssnap.Max), scans.Load(), *scanlen)
	}
	var serialPerOp, abortsPerOp float64
	if dc, ds, da := info.commits-mon.base.commits, info.serial-mon.base.serial, info.aborts-mon.base.aborts; dc+ds > 0 {
		serialPerOp = float64(ds) / float64(total)
		abortsPerOp = float64(da) / float64(total)
		fmt.Printf("  server tx over run: commits=%d serial=%d aborts=%d (serial/op=%.4f aborts/op=%.4f)\n",
			dc, ds, da, serialPerOp, abortsPerOp)
	}
	fmt.Printf("  mix: GET=%d (hit %.1f%%) SET=%d DEL=%d SCAN=%d\n",
		gets.Load(), 100*float64(hits.Load())/float64(max64(gets.Load(), 1)), sets.Load(), dels.Load(), scans.Load())
	fmt.Printf("  live nodes over run: [%d, %d] (spread %d, key range %d); deferred at end: %d\n",
		info.liveMin, info.liveMax, info.liveMax-info.liveMin, *keys, info.deferred)

	// Tail-latency forensics: if the server advertised its obs endpoint in
	// INFO (hohserver -obs), use it even without an explicit -obsaddr, and
	// summarize the slowlog + hot-key sketches it captured over the run.
	if *obsAddr == "" && info.obsAddr != "" {
		*obsAddr = info.obsAddr
		fmt.Printf("  obs endpoint auto-discovered from INFO: %s\n", *obsAddr)
	}
	var fz forensics
	if *obsAddr != "" {
		var err error
		fz, err = fetchForensics(*obsAddr)
		if err != nil {
			// Forensics are best-effort decoration on a load report; a server
			// built before the slowlog existed should not fail the run.
			fmt.Fprintln(os.Stderr, "hohload: forensics:", err)
		} else if fz.slowCount > 0 {
			fmt.Printf("  slowlog: %d entries, worst %s (%s-dominated)",
				fz.slowCount, time.Duration(fz.slowWorstNs), fz.slowWorstPhase)
			if fz.hotKeyAborts > 0 {
				fmt.Printf("; hottest key by aborts: %d (%d aborts)", fz.hotKey, fz.hotKeyAborts)
			}
			fmt.Println()
		}
	}

	if *out == "" {
		return
	}
	cell := bench.Cell{
		Family:      "server",
		Variant:     info.variant,
		Threads:     info.slots,
		Mops:        mops,
		Conns:       *conns,
		ReadPct:     *reads,
		Shards:      info.shards,
		OpP50Ns:     snap.P50,
		OpP99Ns:     snap.P99,
		LiveMin:     info.liveMin,
		LiveMax:     info.liveMax,
		Deferred:    info.deferred,
		OfferedRps:  *rate,
		AchievedRps: achieved,
		SerialPerOp: serialPerOp,
		AbortsPerOp: abortsPerOp,
	}
	if *rate == 0 {
		cell.Depth = *depth
		cell.AchievedRps = 0
	}
	if *batch > 1 {
		cell.Batch = *batch
		cell.BatchP50Ns = bsnap.P50
		cell.BatchP99Ns = bsnap.P99
	}
	if *scanfrac > 0 {
		cell.ScanPct = *scanfrac
		cell.ScanLen = *scanlen
		cell.ScanP50Ns = ssnap.P50
		cell.ScanP99Ns = ssnap.P99
	}
	if *obsAddr != "" {
		snap, err := fetchObs(*obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hohload: -obsaddr:", err)
			os.Exit(1)
		}
		cell.Obs = snap
		reclaimCellFields(&cell, snap)
		cell.SlowCount = fz.slowCount
		cell.SlowWorstNs = fz.slowWorstNs
		cell.SlowWorstPhase = fz.slowWorstPhase
		cell.HotKey = fz.hotKey
		cell.HotKeyAborts = fz.hotKeyAborts
	}
	if gcOK {
		if gcEnd, err := fetchGC(gcAddr); err == nil && total > 0 {
			cell.AllocsPerOp = float64(gcEnd.AllocObjects-gcBase.AllocObjects) / float64(total)
			cell.GCCycles = gcEnd.Cycles - gcBase.Cycles
			fmt.Printf("  server GC over run: %.3f allocs/op, %d cycles\n",
				cell.AllocsPerOp, cell.GCCycles)
		}
	}
	sum := bench.Summary{
		Bench:      bench.BenchNumber(*out),
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workload:   workloadDesc(*keys, *reads, *conns, *depth, *batch, *scanfrac, *scanlen, *rate),
		Ops:        *ops,
		Trials:     1,
	}
	if *appendOut {
		if prev, err := os.ReadFile(*out); err == nil {
			var old bench.Summary
			if err := json.Unmarshal(prev, &old); err != nil {
				fmt.Fprintf(os.Stderr, "hohload: -append: %s is not a summary: %v\n", *out, err)
				os.Exit(1)
			}
			sum.Cells = old.Cells
			if old.Workload != "" {
				// Keep the first recording's description; per-cell fields
				// carry each run's own parameters.
				sum.Workload = old.Workload
			}
		}
	}
	sum.Cells = append(sum.Cells, cell)
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hohload:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "hohload:", err)
		os.Exit(1)
	}
	fmt.Printf("  wrote %s (%d cells)\n", *out, len(sum.Cells))
}

// workloadDesc names the recorded workload; open- and closed-loop runs
// read differently (rate vs. pipeline depth).
func workloadDesc(keys uint64, reads, conns, depth, batch, scanfrac, scanlen int, rate float64) string {
	b := ""
	if batch > 1 {
		b = fmt.Sprintf(", MULTI batch %d", batch)
	}
	if scanfrac > 0 {
		b += fmt.Sprintf(", %d%% ASCEND scans of %d", scanfrac, scanlen)
	}
	if rate > 0 {
		return fmt.Sprintf("hohserver loopback: %d keys, %d%% reads, %d conns, open loop%s",
			keys, reads, conns, b)
	}
	return fmt.Sprintf("hohserver loopback: %d keys, %d%% reads, %d conns × depth %d%s",
		keys, reads, conns, depth, b)
}

func runConn(cid int, addr string, ops, depth int, keys uint64, reads, scanfrac, scanlen int, seed uint64,
	hist, scanHist *obs.Histogram, gets, sets, dels, hits, scans *atomic.Uint64) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	br := bufio.NewReaderSize(c, 16<<10)
	bw := bufio.NewWriterSize(c, 16<<10)
	sc := serve.NewLineScanner(br)
	var req []byte

	rng := seed + uint64(cid+1)*0x9e3779b97f4a7c15
	sendTimes := make([]time.Time, depth)
	verbs := make([]byte, depth)
	var sent, recv int

	send := func() error {
		r := splitmix64(&rng)
		key := 1 + (r>>8)%keys
		// The scan decision draws on bits the point-op classification below
		// never touches, so a run at -scanfrac 0 issues exactly the same
		// point-op stream as one with scans mixed in — the interference
		// sweep changes only what is added, not what is compared.
		if scanfrac > 0 && int((r>>48)%100) < scanfrac {
			sendTimes[sent%depth] = time.Now()
			verbs[sent%depth] = 'A'
			if err := writeScanReq(bw, &req, key, scanlen); err != nil {
				return err
			}
			sent++
			return bw.Flush()
		}
		var verb string
		var vb byte
		switch {
		case int(r%100) < reads:
			verb, vb = "GET", 'G'
		case r&(1<<40) == 0:
			verb, vb = "SET", 'S'
		default:
			verb, vb = "DEL", 'D'
		}
		sendTimes[sent%depth] = time.Now()
		verbs[sent%depth] = vb
		if err := writeReq(bw, &req, verb, key); err != nil {
			return err
		}
		sent++
		return bw.Flush()
	}
	for sent < depth && sent < ops {
		if err := send(); err != nil {
			return err
		}
	}
	for recv < ops {
		if verbs[recv%depth] == 'A' {
			// A scan's reply is OK lines up to its END terminator; the
			// scan is charged from its send time to that terminator.
			if err := drainScan(sc); err != nil {
				return fmt.Errorf("scan after %d replies: %w", recv, err)
			}
			scanHist.RecordAt(uint64(cid), uint64(time.Since(sendTimes[recv%depth])))
			scans.Add(1)
		} else {
			reply, err := sc.Line()
			if err != nil {
				return fmt.Errorf("after %d replies: %w", recv, err)
			}
			if isErrLine(reply) {
				return fmt.Errorf("server: %s", reply)
			}
			hist.RecordAt(uint64(cid), uint64(time.Since(sendTimes[recv%depth])))
			switch verbs[recv%depth] {
			case 'G':
				gets.Add(1)
				if isOne(reply) {
					hits.Add(1)
				}
			case 'S':
				sets.Add(1)
			default:
				dels.Add(1)
			}
		}
		recv++
		if sent < ops {
			if err := send(); err != nil {
				return err
			}
		}
	}
	return nil
}

// drainScan consumes one ASCEND reply — OK lines through the END
// terminator — and fails on an ERR terminator or malformed line. It runs
// over the shared reused-buffer scanner: a long scan used to allocate one
// string per OK line, on the measuring side of the experiment.
func drainScan(sc *serve.LineScanner) error {
	for {
		line, err := sc.Line()
		if err != nil {
			return err
		}
		switch {
		case string(line) == "END":
			return nil
		case isErrLine(line):
			return fmt.Errorf("server: %s", line)
		case len(line) < 3 || line[0] != 'O' || line[1] != 'K' || line[2] != ' ':
			return fmt.Errorf("malformed scan line %q", line)
		}
	}
}

// isErrLine reports whether a reply line is an ERR terminator, without
// materializing a string.
func isErrLine(b []byte) bool {
	return len(b) >= 3 && b[0] == 'E' && b[1] == 'R' && b[2] == 'R'
}

// isOne reports a "1" reply.
func isOne(b []byte) bool { return len(b) == 1 && b[0] == '1' }

// writeReq renders "<verb> <key>\n" through the caller's reused scratch.
// fmt.Fprintf here cost two heap objects per request (argument boxing),
// charged to the load generator's own measurement loop.
func writeReq(bw *bufio.Writer, buf *[]byte, verb string, key uint64) error {
	b := append((*buf)[:0], verb...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, key, 10)
	b = append(b, '\n')
	*buf = b
	_, err := bw.Write(b)
	return err
}

// writeScanReq renders "ASCEND <lo> <n>\n" the same way.
func writeScanReq(bw *bufio.Writer, buf *[]byte, lo uint64, n int) error {
	b := append((*buf)[:0], "ASCEND "...)
	b = strconv.AppendUint(b, lo, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, '\n')
	*buf = b
	_, err := bw.Write(b)
	return err
}

// runConnOpen drives one connection open-loop: a writer goroutine sends
// request i at its scheduled time start + (i×conns + cid)×interval — it
// never waits for replies, so a slow server accumulates in-flight
// requests instead of slowing the offered load — while the reader (this
// goroutine) measures each reply against that same intended send time.
// Reader and writer re-derive the identical deterministic request stream
// from the shared seed, so no per-request metadata crosses between them.
func runConnOpen(cid int, addr string, ops, conns int, interval time.Duration, start time.Time,
	keys uint64, reads, scanfrac, scanlen int, seed uint64,
	hist, scanHist *obs.Histogram, gets, sets, dels, hits, scans *atomic.Uint64) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	sc := serve.NewLineScanner(br)

	// verbOf classifies request i's random draw the same way runConn does,
	// so closed- and open-loop runs at the same seed issue the same ops.
	// 'A' (an ASCEND scan) draws on separate bits, leaving the point-op
	// substream untouched across scanfrac settings.
	verbOf := func(r uint64) (string, byte) {
		switch {
		case scanfrac > 0 && int((r>>48)%100) < scanfrac:
			return "ASCEND", 'A'
		case int(r%100) < reads:
			return "GET", 'G'
		case r&(1<<40) == 0:
			return "SET", 'S'
		default:
			return "DEL", 'D'
		}
	}
	due := func(i int) time.Time {
		return start.Add(time.Duration(i*conns+cid) * interval)
	}

	writeErr := make(chan error, 1)
	go func() {
		rng := seed + uint64(cid+1)*0x9e3779b97f4a7c15
		var req []byte
		for i := 0; i < ops; i++ {
			if d := time.Until(due(i)); d > 0 {
				// Push buffered requests out before going idle: nothing may
				// sit in the client buffer past its scheduled send time.
				if err := bw.Flush(); err != nil {
					writeErr <- err
					return
				}
				time.Sleep(d)
			}
			r := splitmix64(&rng)
			verb, vb := verbOf(r)
			if vb == 'A' {
				if err := writeScanReq(bw, &req, 1+(r>>8)%keys, scanlen); err != nil {
					writeErr <- err
					return
				}
				continue
			}
			if err := writeReq(bw, &req, verb, 1+(r>>8)%keys); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- bw.Flush()
	}()

	// The reader re-derives the same stream to classify replies, and
	// clocks each one against the request's intended send time — if the
	// server (or the writer's socket) stalls, every queued request's
	// latency grows by the stall, exactly as a real open-loop client
	// population would experience it. A scan is clocked from its intended
	// send time to its END terminator, so a slow scan charges both itself
	// and (through the shared pipeline) the requests queued behind it.
	rng := seed + uint64(cid+1)*0x9e3779b97f4a7c15
	for recv := 0; recv < ops; recv++ {
		r := splitmix64(&rng)
		_, vb := verbOf(r)
		if vb == 'A' {
			if err := drainScan(sc); err != nil {
				return fmt.Errorf("scan after %d replies: %w", recv, err)
			}
			lat := time.Since(due(recv))
			if lat < 0 {
				lat = 0
			}
			scanHist.RecordAt(uint64(cid), uint64(lat))
			scans.Add(1)
			continue
		}
		reply, err := sc.Line()
		if err != nil {
			return fmt.Errorf("after %d replies: %w", recv, err)
		}
		if isErrLine(reply) {
			return fmt.Errorf("server: %s", reply)
		}
		lat := time.Since(due(recv))
		if lat < 0 {
			lat = 0 // clock skew guard: a reply cannot precede its request
		}
		hist.RecordAt(uint64(cid), uint64(lat))
		switch vb {
		case 'G':
			gets.Add(1)
			if isOne(reply) {
				hits.Add(1)
			}
		case 'S':
			sets.Add(1)
		default:
			dels.Add(1)
		}
	}
	return <-writeErr
}

// writeFrame appends one MULTI frame of batch ops to bw, drawing the next
// batch draws from rng, and returns the verb tags in frame order. buf is
// the caller's reused request scratch.
func writeFrame(bw *bufio.Writer, buf *[]byte, rng *uint64, batch int, keys uint64, reads int, tags []byte) error {
	b := append((*buf)[:0], "MULTI "...)
	b = strconv.AppendInt(b, int64(batch), 10)
	b = append(b, '\n')
	for j := 0; j < batch; j++ {
		r := splitmix64(rng)
		key := 1 + (r>>8)%keys
		var verb string
		switch {
		case int(r%100) < reads:
			verb, tags[j] = "GET", 'G'
		case r&(1<<40) == 0:
			verb, tags[j] = "SET", 'S'
		default:
			verb, tags[j] = "DEL", 'D'
		}
		b = append(b, verb...)
		b = append(b, ' ')
		b = strconv.AppendUint(b, key, 10)
		b = append(b, '\n')
	}
	*buf = b
	_, err := bw.Write(b)
	return err
}

// tallyReply classifies one batch reply line against its verb tag.
func tallyReply(reply []byte, tag byte, gets, sets, dels, hits *atomic.Uint64) {
	switch tag {
	case 'G':
		gets.Add(1)
		if isOne(reply) {
			hits.Add(1)
		}
	case 'S':
		sets.Add(1)
	default:
		dels.Add(1)
	}
}

// runConnBatch drives one connection closed-loop in batch mode: keep
// depth MULTI frames of batch ops in flight, send a new frame per frame
// of replies. Per-op latency is measured from the frame's send time to
// that op's reply line; whole-frame latency from send to the frame's last
// line.
func runConnBatch(cid int, addr string, ops, depth, batch int, keys uint64, reads int, seed uint64,
	opHist, batchHist *obs.Histogram, gets, sets, dels, hits *atomic.Uint64) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)

	frames := ops / batch
	rng := seed + uint64(cid+1)*0x9e3779b97f4a7c15
	sendTimes := make([]time.Time, depth)
	tags := make([]byte, depth*batch)
	var req []byte
	var sent, recv int

	send := func() error {
		sendTimes[sent%depth] = time.Now()
		if err := writeFrame(bw, &req, &rng, batch, keys, reads, tags[(sent%depth)*batch:(sent%depth)*batch+batch]); err != nil {
			return err
		}
		sent++
		return bw.Flush()
	}
	for sent < depth && sent < frames {
		if err := send(); err != nil {
			return err
		}
	}
	sc := serve.NewLineScanner(br)
	for recv < frames {
		slot := recv % depth
		for j := 0; j < batch; j++ {
			reply, err := sc.Line()
			if err != nil {
				return fmt.Errorf("frame %d op %d: %w", recv, j, err)
			}
			if isErrLine(reply) {
				return fmt.Errorf("server: %s", reply)
			}
			opHist.RecordAt(uint64(cid), uint64(time.Since(sendTimes[slot])))
			tallyReply(reply, tags[slot*batch+j], gets, sets, dels, hits)
		}
		batchHist.RecordAt(uint64(cid), uint64(time.Since(sendTimes[slot])))
		recv++
		if sent < frames {
			if err := send(); err != nil {
				return err
			}
		}
	}
	return nil
}

// runConnOpenBatch drives one connection open-loop in batch mode. The
// cadence stays per-op: globally op k is due at start + k×interval, and a
// frame is due when its *last* op is due (a frame cannot leave until all
// its ops exist). Each op's latency is still measured from its own
// intended send time, so the first op of a frame is charged the
// (batch−1)×interval it spent waiting for the frame to fill — batching
// trades exactly that much intake latency for transaction amortization,
// and the measurement keeps the trade visible instead of hiding it.
func runConnOpenBatch(cid int, addr string, ops, conns, batch int, interval time.Duration, start time.Time,
	keys uint64, reads int, seed uint64,
	opHist, batchHist *obs.Histogram, gets, sets, dels, hits *atomic.Uint64) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)

	frames := ops / batch
	// Frame f of this connection is global frame f×conns+cid; its op j is
	// global op (f×conns+cid)×batch + j.
	opDue := func(f, j int) time.Time {
		return start.Add(time.Duration((f*conns+cid)*batch+j) * interval)
	}

	writeErr := make(chan error, 1)
	go func() {
		rng := seed + uint64(cid+1)*0x9e3779b97f4a7c15
		tags := make([]byte, batch)
		var req []byte
		for f := 0; f < frames; f++ {
			if d := time.Until(opDue(f, batch-1)); d > 0 {
				if err := bw.Flush(); err != nil {
					writeErr <- err
					return
				}
				time.Sleep(d)
			}
			if err := writeFrame(bw, &req, &rng, batch, keys, reads, tags); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- bw.Flush()
	}()

	// The reader re-derives the same op stream to classify replies.
	rng := seed + uint64(cid+1)*0x9e3779b97f4a7c15
	tagOf := func(r uint64) byte {
		switch {
		case int(r%100) < reads:
			return 'G'
		case r&(1<<40) == 0:
			return 'S'
		default:
			return 'D'
		}
	}
	sc := serve.NewLineScanner(br)
	for f := 0; f < frames; f++ {
		for j := 0; j < batch; j++ {
			reply, err := sc.Line()
			if err != nil {
				return fmt.Errorf("frame %d op %d: %w", f, j, err)
			}
			if isErrLine(reply) {
				return fmt.Errorf("server: %s", reply)
			}
			lat := time.Since(opDue(f, j))
			if lat < 0 {
				lat = 0
			}
			opHist.RecordAt(uint64(cid), uint64(lat))
			tallyReply(reply, tagOf(splitmix64(&rng)), gets, sets, dels, hits)
			if j == batch-1 {
				blat := time.Since(opDue(f, batch-1))
				if blat < 0 {
					blat = 0
				}
				batchHist.RecordAt(uint64(cid), uint64(blat))
			}
		}
	}
	return <-writeErr
}

// prefill inserts every other key in [1, keys] through one pipelined
// connection, chunked so neither side's socket buffer can fill while the
// other waits.
func prefill(addr string, keys uint64) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	br := bufio.NewReaderSize(c, 16<<10)
	bw := bufio.NewWriterSize(c, 16<<10)
	sc := serve.NewLineScanner(br)
	var req []byte
	const chunk = 256
	pending := 0
	drain := func() error {
		if err := bw.Flush(); err != nil {
			return err
		}
		for ; pending > 0; pending-- {
			if _, err := sc.Line(); err != nil {
				return err
			}
		}
		return nil
	}
	for k := uint64(1); k <= keys; k += 2 {
		if err := writeReq(bw, &req, "SET", k); err != nil {
			return err
		}
		if pending++; pending == chunk {
			if err := drain(); err != nil {
				return err
			}
		}
	}
	return drain()
}

// fetchObs pulls the server's observability snapshot (hohserver -obs)
// and folds every domain's populated histograms into one DomainSnapshot
// under domain-prefixed names. Prefixing instead of merging keeps each
// histogram's buckets intact — summing per-shard log₂ buckets would
// still be sound, but percentile reconstruction across differently
// loaded shards is not, so the cell records them side by side.
func fetchObs(addr string) (*obs.DomainSnapshot, error) {
	resp, err := http.Get("http://" + addr + "/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /snapshot: %s", resp.Status)
	}
	var doms []obs.DomainSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&doms); err != nil {
		return nil, fmt.Errorf("decode /snapshot: %w", err)
	}
	merged := &obs.DomainSnapshot{Name: "server-export"}
	for _, d := range doms {
		merged.Events += d.Events
		for _, h := range d.Histograms {
			if h.Count == 0 {
				continue
			}
			h.Name = d.Name + "/" + h.Name
			merged.Histograms = append(merged.Histograms, h)
		}
		for _, g := range d.Gauges {
			g.Name = d.Name + "/" + g.Name
			merged.Gauges = append(merged.Gauges, g)
		}
	}
	return merged, nil
}

// fetchGC pulls just the runtime-gc panel's cumulative counters from the
// server's /snapshot (see obs.GCSnapshot). Sampled before and after the
// measured run, the deltas become the cell's GC-pressure columns.
func fetchGC(addr string) (obs.GCStats, error) {
	resp, err := http.Get("http://" + addr + "/snapshot")
	if err != nil {
		return obs.GCStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs.GCStats{}, fmt.Errorf("GET /snapshot: %s", resp.Status)
	}
	var doms []obs.DomainSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&doms); err != nil {
		return obs.GCStats{}, fmt.Errorf("decode /snapshot: %w", err)
	}
	var st obs.GCStats
	for _, d := range doms {
		if d.Name != "runtime-gc" {
			continue
		}
		for _, g := range d.Gauges {
			switch g.Name {
			case "gc_cycles":
				st.Cycles = g.Value
			case "heap_allocs_objects":
				st.AllocObjects = g.Value
			case "heap_allocs_bytes":
				st.AllocBytes = g.Value
			}
		}
		return st, nil
	}
	return st, fmt.Errorf("no runtime-gc domain in /snapshot")
}

// reclaimCellFields lifts the deferred-reclamation view out of the merged
// server snapshot into the cell's outcome columns: the worst shard's
// retire→free delay and free→reuse distance percentiles (sampled by the
// structure's ReclaimProbe/AllocProbe), and the peak deferred depth summed
// across shards — each shard's scheme defers independently, so the sum is
// the process-wide high-water mark's upper bound. Outcome fields only:
// none join the benchdiff cell identity, so BENCH_7 cells recorded with
// these columns still gate against BENCH_5/6 cells recorded without them.
func reclaimCellFields(cell *bench.Cell, snap *obs.DomainSnapshot) {
	for _, h := range snap.Histograms {
		switch {
		case strings.HasSuffix(h.Name, "/"+obs.HistReclaimOps):
			if h.P99 > cell.ReclaimP99Ops {
				cell.ReclaimP50Ops, cell.ReclaimP99Ops = h.P50, h.P99
			}
			if h.Max > cell.ReclaimMaxOps {
				cell.ReclaimMaxOps = h.Max
			}
		case strings.HasSuffix(h.Name, "/"+obs.HistReuseOps):
			if h.P99 > cell.ReuseP99Ops {
				cell.ReuseP50Ops, cell.ReuseP99Ops = h.P50, h.P99
			}
		}
	}
	for _, g := range snap.Gauges {
		if strings.HasSuffix(g.Name, "/peak_deferred") {
			cell.PeakDeferred += g.Value
		}
	}
}

// forensics is the slowlog/hot-key summary hohload embeds in the bench
// cell: how bad the worst request was, where its time went, and which key
// caused the most aborts.
type forensics struct {
	slowCount      int
	slowWorstNs    uint64
	slowWorstPhase string
	hotKey         uint64
	hotKeyAborts   uint64
}

// fetchForensics pulls /slowlog and /hotkeys from the server's obs
// endpoint. Entries are already slowest-first per domain; across domains
// (there is normally exactly one slowlog, on the server domain) the worst
// entry wins and counts sum. The hot key is the cross-shard rollup's top
// entry by aborts caused.
func fetchForensics(addr string) (forensics, error) {
	var fz forensics
	resp, err := http.Get("http://" + addr + "/slowlog")
	if err != nil {
		return fz, err
	}
	var slow []obs.SlowlogDump
	err = json.NewDecoder(resp.Body).Decode(&slow)
	resp.Body.Close()
	if err != nil {
		return fz, fmt.Errorf("decode /slowlog: %w", err)
	}
	for _, d := range slow {
		fz.slowCount += len(d.Entries)
		for _, e := range d.Entries {
			if e.TotalNs > fz.slowWorstNs {
				fz.slowWorstNs = e.TotalNs
				fz.slowWorstPhase = e.WorstPhase
			}
		}
	}
	resp, err = http.Get("http://" + addr + "/hotkeys")
	if err != nil {
		return fz, err
	}
	var hot []obs.HotKeysDump
	err = json.NewDecoder(resp.Body).Decode(&hot)
	resp.Body.Close()
	if err != nil {
		return fz, fmt.Errorf("decode /hotkeys: %w", err)
	}
	for _, d := range hot {
		if len(d.Rollup.ByAborts) > 0 && d.Rollup.ByAborts[0].Count > fz.hotKeyAborts {
			fz.hotKey = d.Rollup.ByAborts[0].Key
			fz.hotKeyAborts = d.Rollup.ByAborts[0].Count
		}
	}
	return fz, nil
}

// monitor samples INFO on its own connection every 50ms.
type monitor struct {
	br    *bufio.Reader // one reader for the connection's lifetime
	stopc chan struct{}
	done  chan struct{}
	info  serverInfo
	base  serverInfo // the first sample; tx counters diff against it
}

type serverInfo struct {
	variant  string
	shards   int
	slots    int
	liveMin  uint64
	liveMax  uint64
	deferred uint64
	commits  uint64
	serial   uint64
	aborts   uint64
	obsAddr  string // INFO obs=<addr>: the server's own advertisement of its obs endpoint
}

func startMonitor(addr string) (*monitor, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	m := &monitor{br: bufio.NewReader(c), stopc: make(chan struct{}), done: make(chan struct{})}
	first, err := queryInfo(c, m.br)
	if err != nil {
		c.Close()
		return nil, err
	}
	m.info = first
	m.base = first
	go func() {
		defer close(m.done)
		defer c.Close()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stopc:
				if in, err := queryInfo(c, m.br); err == nil {
					m.merge(in)
				}
				return
			case <-tick.C:
				if in, err := queryInfo(c, m.br); err == nil {
					m.merge(in)
				}
			}
		}
	}()
	return m, nil
}

func (m *monitor) merge(in serverInfo) {
	if in.liveMin < m.info.liveMin {
		m.info.liveMin = in.liveMin
	}
	if in.liveMax > m.info.liveMax {
		m.info.liveMax = in.liveMax
	}
	m.info.deferred = in.deferred
	m.info.commits = in.commits
	m.info.serial = in.serial
	m.info.aborts = in.aborts
}

func (m *monitor) stop() serverInfo {
	close(m.stopc)
	<-m.done
	return m.info
}

// queryInfo sends one INFO request and parses the reply.
func queryInfo(c net.Conn, br *bufio.Reader) (serverInfo, error) {
	if _, err := fmt.Fprintf(c, "INFO\n"); err != nil {
		return serverInfo{}, err
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return serverInfo{}, err
	}
	var in serverInfo
	for _, f := range strings.Fields(strings.TrimSpace(line)) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		switch k {
		case "variant":
			in.variant = v
		case "shards":
			in.shards, _ = strconv.Atoi(v)
		case "slots":
			in.slots, _ = strconv.Atoi(v)
		case "live":
			n, _ := strconv.ParseUint(v, 10, 64)
			in.liveMin, in.liveMax = n, n
		case "deferred":
			in.deferred, _ = strconv.ParseUint(v, 10, 64)
		case "commits":
			in.commits, _ = strconv.ParseUint(v, 10, 64)
		case "serial":
			in.serial, _ = strconv.ParseUint(v, 10, 64)
		case "aborts":
			in.aborts, _ = strconv.ParseUint(v, 10, 64)
		case "obs":
			in.obsAddr = v
		}
	}
	if in.variant == "" {
		return serverInfo{}, fmt.Errorf("malformed INFO reply %q", strings.TrimSpace(line))
	}
	return in, nil
}

// oneShot sends a ';'-separated request pipeline and prints the replies.
// MULTI framing is understood: "MULTI n" consumes the next n requests as
// its body and yields n reply lines (the body lines get the replies, the
// MULTI line itself none).
func oneShot(addr, script string) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hohload:", err)
		os.Exit(1)
	}
	defer c.Close()
	var reqs []string
	for _, r := range strings.Split(script, ";") {
		if r = strings.TrimSpace(r); r != "" {
			reqs = append(reqs, r)
		}
	}
	bw := bufio.NewWriter(c)
	for _, r := range reqs {
		fmt.Fprintf(bw, "%s\n", r)
	}
	if err := bw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "hohload:", err)
		os.Exit(1)
	}
	sc := serve.NewLineScanner(bufio.NewReader(c))
	read := func(r string) {
		line, err := sc.Line()
		if err != nil {
			fmt.Fprintln(os.Stderr, "hohload:", err)
			os.Exit(1)
		}
		fmt.Printf("%-12s -> %s\n", r, line)
	}
	for i := 0; i < len(reqs); i++ {
		if strings.HasPrefix(reqs[i], "ASCEND ") || strings.HasPrefix(reqs[i], "SLOWLOG") {
			// Both stream lines until END (or an ERR terminator): OK lines
			// for a scan, SLOW lines for a slowlog dump.
			fmt.Printf("%-12s    (stream)\n", reqs[i])
			for {
				line, err := sc.Line()
				if err != nil {
					fmt.Fprintln(os.Stderr, "hohload:", err)
					os.Exit(1)
				}
				fmt.Printf("%-12s -> %s\n", "", line)
				if string(line) == "END" || isErrLine(line) {
					break
				}
			}
			continue
		}
		arg, isMulti := strings.CutPrefix(reqs[i], "MULTI ")
		n := 0
		if isMulti {
			n, _ = strconv.Atoi(strings.TrimSpace(arg))
		}
		if !isMulti || n < 1 || i+n >= len(reqs) {
			read(reqs[i])
			continue
		}
		// A well-formed frame: one reply per body line, none for the header.
		fmt.Printf("%-12s    (batch of %d)\n", reqs[i], n)
		for j := 0; j < n; j++ {
			i++
			read(reqs[i])
		}
	}
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
