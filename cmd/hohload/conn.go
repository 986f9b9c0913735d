package main

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"hohtx/internal/loadgen"
	"hohtx/internal/obs"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
)

// config is one run's parameters, as the flags give them.
type config struct {
	addr     string
	conns    int
	depth    int // closed loop: requests in flight per connection
	keys     uint64
	reads    int     // percent of point ops that are GET
	ops      int     // per connection; a multiple of batch
	rate     float64 // open loop: ops/sec across all connections; 0 = closed loop
	batch    int     // ops per request; > 1 frames them as MULTI
	scanfrac int     // percent of requests that are ASCEND scans (batch 1 only)
	scanlen  int
	seed     uint64
	obsAddr  string
}

// meters is what the connections of one run record into.
type meters struct {
	op, frame, scan               *obs.Histogram
	gets, sets, dels, hits, scans atomic.Uint64
}

func newMeters() *meters {
	return &meters{
		op:    obs.NewHistogram("op_latency", "ns"),
		frame: obs.NewHistogram("batch_latency", "ns"),
		scan:  obs.NewHistogram("scan_latency", "ns"),
	}
}

// gen is the deterministic request stream of one connection: batch ops a
// request, each one loadgen.Mix draw, a point op or (scan > 0) a scan of
// scanlen keys from its key. next overwrites ops and scan.
type gen struct {
	rng     uint64
	mix     loadgen.Mix
	scanlen int
	ops     []sets.Op
	scan    []int
}

func newGen(cfg *config, cid int) *gen {
	return &gen{
		rng:     cfg.seed + uint64(cid+1)*0x9e3779b97f4a7c15,
		mix:     loadgen.Mix{Keys: cfg.keys, Reads: cfg.reads, ScanFrac: cfg.scanfrac},
		scanlen: cfg.scanlen,
		ops:     make([]sets.Op, cfg.batch), scan: make([]int, cfg.batch),
	}
}

func (g *gen) next() {
	for j := range g.ops {
		op, scan := g.mix.Draw(&g.rng)
		g.ops[j], g.scan[j] = op, 0
		if scan {
			g.scan[j] = g.scanlen
		}
	}
}

// appendWire renders the current request: one line per op, behind a
// MULTI header when it carries more than one.
func (g *gen) appendWire(b []byte) []byte {
	if len(g.ops) > 1 {
		b = serve.AppendMulti(b, len(g.ops))
	}
	for j, op := range g.ops {
		b = serve.AppendRequest(b, op, g.scan[j])
	}
	return b
}

// clock answers origin(i, j): the zero of the latency clock of op j of a
// connection's request i. Open loop (interval > 0): the op's *intended*
// send time on a per-op cadence all connections share, whether or not the
// writer got to the socket by then — so a request queued behind a stall is
// charged the stall (coordinated omission), and the first op of a frame is
// charged the (batch−1)·interval it waited for the frame to fill. Closed
// loop: when request i was actually sent, from a ring one pipeline deep.
type clock struct {
	start             time.Time
	interval          time.Duration
	conns, cid, batch int
	sentAt            []time.Time
}

func (k *clock) origin(i, j int) time.Time {
	if k.interval > 0 {
		return k.start.Add(time.Duration((i*k.conns+k.cid)*k.batch+j) * k.interval)
	}
	return k.sentAt[i%len(k.sentAt)]
}

// runConn drives connection cid through cfg.ops/cfg.batch requests. Loop
// mode decides two things and nothing else: the clock's origin, and
// pacing. Closed (interval 0): cfg.depth requests are primed, and each
// completed request sends the next. Open: a writer goroutine sends request
// i when its last op is due whether or not earlier replies have arrived,
// so a slow server accumulates in-flight requests instead of slowing the
// offered load; it flushes before it idles, so nothing sits in the client
// buffer past its send time. A frame is clocked as a whole from its last
// op's origin, a scan from its origin through its END.
//
// Writer and reader each own a generator seeded alike, so no per-request
// state crosses between them.
func runConn(cid int, cfg *config, start time.Time, interval time.Duration, m *meters) error {
	c, err := net.Dial("tcp", cfg.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	bw := bufio.NewWriterSize(c, 64<<10)
	sc := serve.NewLineScanner(bufio.NewReaderSize(c, 64<<10))

	requests, last := cfg.ops/cfg.batch, cfg.batch-1
	clk := clock{start: start, interval: interval, conns: cfg.conns, cid: cid, batch: cfg.batch,
		sentAt: make([]time.Time, cfg.depth)}
	origin := clk.origin
	since := func(t time.Time) uint64 {
		if d := time.Since(t); d > 0 {
			return uint64(d)
		}
		return 0 // clock-skew guard: a reply cannot precede its request
	}

	wgen, req := newGen(cfg, cid), []byte(nil)
	write := func() error {
		wgen.next()
		req = wgen.appendWire(req[:0])
		_, err := bw.Write(req)
		return err
	}
	writeErr := make(chan error, 1)
	sent := 0                           // closed loop: requests written so far
	send := func() error { return nil } // what a completed request triggers
	if interval > 0 {
		writer := func() error {
			for i := 0; i < requests; i++ {
				if d := time.Until(origin(i, last)); d > 0 {
					if err := bw.Flush(); err != nil {
						return err
					}
					time.Sleep(d)
				}
				if err := write(); err != nil {
					return err
				}
			}
			return bw.Flush()
		}
		go func() { writeErr <- writer() }()
	} else {
		writeErr <- nil
		send = func() error {
			if sent == requests {
				return nil
			}
			clk.sentAt[sent%cfg.depth] = time.Now()
			sent++
			if err := write(); err != nil {
				return err
			}
			return bw.Flush()
		}
		for sent < cfg.depth && sent < requests {
			if err := send(); err != nil {
				return err
			}
		}
	}

	rgen := newGen(cfg, cid)
	for i := 0; i < requests; i++ {
		rgen.next()
		for j, op := range rgen.ops {
			hit, err := serve.ReadReply(sc, rgen.scan[j] > 0, nil)
			if err != nil {
				return fmt.Errorf("reply %d op %d: %w", i, j, err)
			}
			if rgen.scan[j] > 0 {
				m.scan.RecordAt(uint64(cid), since(origin(i, j)))
				m.scans.Add(1)
				continue
			}
			m.op.RecordAt(uint64(cid), since(origin(i, j)))
			switch op.Kind {
			case sets.OpLookup:
				m.gets.Add(1)
				if hit {
					m.hits.Add(1)
				}
			case sets.OpInsert:
				m.sets.Add(1)
			default:
				m.dels.Add(1)
			}
		}
		if last > 0 {
			m.frame.RecordAt(uint64(cid), since(origin(i, last)))
		}
		if err := send(); err != nil {
			return err
		}
	}
	return <-writeErr
}

// prefill inserts loadgen.PrefillOrder's keys through one pipelined
// connection, chunked so neither side's socket buffer can fill while the
// other waits.
func prefill(addr string, keys, seed uint64) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	bw := bufio.NewWriterSize(c, 16<<10)
	sc := serve.NewLineScanner(bufio.NewReaderSize(c, 16<<10))
	order := loadgen.PrefillOrder(keys, seed)
	const chunk = 256
	var req []byte
	for len(order) > 0 {
		n := min(chunk, len(order))
		req = req[:0]
		for _, k := range order[:n] {
			req = serve.AppendRequest(req, sets.Op{Kind: sets.OpInsert, Key: k}, 0)
		}
		order = order[n:]
		if _, err := bw.Write(req); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		for ; n > 0; n-- {
			if _, err := serve.ReadReply(sc, false, nil); err != nil {
				return err
			}
		}
	}
	return nil
}
