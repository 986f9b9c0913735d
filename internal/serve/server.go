package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hohtx/internal/obs"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
	"hohtx/internal/tree"
)

// drainGrace is how long a draining server lets connections finish the
// pipeline already in flight before their reads time out.
const drainGrace = 250 * time.Millisecond

// DefaultMaxBatch caps MULTI batch sizes when ServerConfig.MaxBatch is
// zero. A batch this large always executes through the serial fallback
// (the capacity cliff sits orders of magnitude lower); the cap exists to
// bound per-request memory, not to keep batches speculative.
const DefaultMaxBatch = 4096

// oversizeDrainFactor bounds how much body the server will consume to
// stay in frame after rejecting an oversized MULTI; counts beyond
// MaxBatch×oversizeDrainFactor drop the connection instead.
const oversizeDrainFactor = 16

// Backend is one shard behind the server: a set plus the lease pool
// multiplexing connections onto that set's worker slots. A single-shard
// server has exactly one backend.
type Backend struct {
	Set  sets.Set
	Pool *Pool
}

// ServerConfig parameterizes NewServer.
type ServerConfig struct {
	// Set is the structure being served; Pool multiplexes connections
	// onto its worker slots. This is the single-shard configuration —
	// exactly one of Set/Pool or Shards must be provided.
	Set  sets.Set
	Pool *Pool
	// Shards, when non-empty, runs the server sharded: keys route to
	// Shards[ShardOf(key, len(Shards))], each shard leasing from its own
	// pool, while LEN and INFO aggregate across all of them. The wire
	// protocol is identical either way.
	Shards []Backend
	// MaxKey bounds accepted keys to [1, MaxKey]. Zero defaults to the
	// tree sentinel bound (the tightest across the repo's structures).
	MaxKey uint64
	// MaxBatch caps the op count of a MULTI batch; zero means
	// DefaultMaxBatch. Oversized batches are rejected with an ERR line
	// (the connection survives).
	MaxBatch int
	// AutoBatch, when > 1, transparently coalesces a connection's
	// pipelined burst of consecutive single-key requests into batch
	// transactions of at most AutoBatch ops each — the capacity-aware
	// split threshold. Unlike MULTI, auto-batches carry no atomicity
	// contract (the client asked for single ops), which is exactly why
	// splitting them at the serial-fallback cliff is legal. Zero or one
	// disables coalescing. See DESIGN.md §11 for how to size it.
	AutoBatch int
	// Obs, when non-nil, receives per-verb service-time histograms, the
	// batch-path histograms (batch service time, sub-transaction sizes,
	// splits per batch), per-batch-size transaction gauges, and the
	// live/deferred/connection gauges. It also arms request tracing: every
	// request carries an obs.Span through lease acquisition, the STM
	// attempt loop and the reply write, feeding the slowlog (SLOWLOG verb,
	// /slowlog endpoint) and the per-shard hot-key sketches (/hotkeys).
	Obs *obs.Domain
	// ObsAddr, when set, is advertised in INFO as obs=<addr> so load
	// generators can discover the obs endpoint without a second flag.
	ObsAddr string
	// SlowlogSize caps how many slow requests each window retains (zero =
	// obs.DefaultSlowlogSize); SlowlogWindow is the rotation period (zero
	// = obs.DefaultSlowlogWindow). Ignored without Obs.
	SlowlogSize   int
	SlowlogWindow time.Duration
	// HotKeyK sizes the per-shard space-saving sketches (zero =
	// obs.DefaultTopK). Ignored without Obs.
	HotKeyK int
}

// Server speaks the repository's line protocol over one or more shards:
//
//	GET <key>\n  -> 1\n | 0\n          (membership)
//	SET <key>\n  -> 1\n | 0\n          (1 = inserted, 0 = already present)
//	DEL <key>\n  -> 1\n | 0\n          (1 = removed; memory is already free)
//	MULTI <n>\n  followed by n GET/SET/DEL lines -> n reply lines (one batch)
//	ASCEND <lo> <n>\n -> up to n "OK <k>" lines, keys ≥ lo ascending,
//	                terminated by END\n (or by an ERR line; see below)
//	SLOWLOG <n>\n -> up to n "SLOW …" lines (slowest requests, phase
//	                breakdowns as key=value fields), terminated by END\n
//	LEN\n        -> <n>\n              (keys currently present, all shards)
//	INFO\n       -> variant=… shards=… slots=… keys=… live=… deferred=… conns=…
//	                maxbatch=… autobatch=… multi=… scan=… commits=…
//	                ro_commits=… rw_commits=… serial=… aborts=… [obs=<addr>]\n
//	anything else -> ERR <reason>\n    (connection stays open)
//
// MULTI executes its n body ops as one transaction per shard touched
// (Set.Apply): on a single-shard server the whole batch is atomic — one
// snapshot, one commit, all-or-nothing — and on a sharded server each
// shard's sub-batch is atomic but the batch as a whole is not, which the
// INFO reply surfaces as multi=per-shard (vs multi=atomic). A MULTI whose
// body fails to parse, or whose count is malformed or exceeds the
// configured cap, is rejected with a single ERR line and executes nothing;
// the connection survives (the body of an oversized-but-bounded batch is
// drained to stay in frame).
//
// ASCEND streams keys ≥ lo in ascending order through the structures'
// reservation cursor (sets.Ascender): the cursor's position is itself a
// revocable reservation, so the scan is windowed and never blocks
// reclamation. The stream is weakly consistent in the sync.Map.Range
// style — keys present for the whole scan are delivered exactly once,
// keys churned during it may or may not appear, and delivered keys are
// strictly ascending. On a sharded server one cursor runs per shard,
// pulled one bounded chunk at a time under the same ascending-shard
// grouped-lease discipline as MULTI and interleaved through a streaming
// N-way merge — the online version of Sharded.Snapshot. A scan normally
// terminates with END; a mid-stream failure (pool saturation or
// shutdown) terminates it with an ERR line instead, so clients must
// treat ERR as the scan's alternate terminator. Variants whose
// reclamation scheme cannot hold a revocable cursor answer
// "ERR scan unsupported"; INFO advertises the capability as
// scan=atomic-window (one shard), scan=merged (cross-shard merge), or
// scan=none.
//
// Lease-pool saturation (ErrSaturated) is load shedding, never a
// connection error: the request that could not get a slot is answered
// with an ERR line and the connection — including the rest of its
// pipeline — stays open. Only pool shutdown and unrecoverable framing
// errors drop connections.
//
// Requests pipeline: a client may write any number of lines before
// reading; replies come back in order. Each connection runs one
// goroutine, which leases a worker slot on a shard only while buffered
// requests route there — an idle connection holds no slot on any shard,
// so connections can outnumber slots by orders of magnitude. With
// AutoBatch configured, consecutive single-key requests of a pipelined
// burst additionally coalesce into batch transactions of at most AutoBatch
// ops (replies are unchanged; only the transaction boundaries move).
//
// With several shards the key-indexed verbs route by ShardOf, so two
// writers on different shards commit against different global clocks and
// different serial-fallback locks; LEN and INFO are the only aggregate
// views, and both are exact (LEN is one server-level counter, INFO sums
// each shard's memory books).
type Server struct {
	shards    []Backend
	maxKey    uint64
	maxBatch  int
	autoBatch int
	dom       *obs.Domain
	probe     *obs.ServeProbe
	mems      []sets.MemoryReporter // per shard; nil entries for bookless sets
	scanOK    bool                  // every shard supports the reservation cursor
	scanCap   string                // INFO scan= field: atomic-window|merged|none
	obsAddr   string                // advertised obs endpoint (INFO obs=)

	// Request-tracing state (nil/empty without cfg.Obs). setDoms[i] is
	// shard i's structure-level obs domain when its set exposes one: the
	// span is armed there per slot so the shard's stm runtime and
	// reclamation scheme can stamp their phases.
	trace    bool
	slow     *obs.Slowlog
	hot      []*obs.HotKeys // per shard
	setDoms  []*obs.Domain  // per shard; nil entries for unobserved sets
	spanPool sync.Pool

	keys  atomic.Int64 // net successful SET − DEL through this server
	conns atomic.Int64

	mu       sync.Mutex
	open     map[net.Conn]struct{}
	ln       net.Listener
	draining atomic.Bool
	wg       sync.WaitGroup
}

// NewServer wires a server over cfg's backends.
func NewServer(cfg ServerConfig) *Server {
	shards := cfg.Shards
	if len(shards) == 0 {
		shards = []Backend{{Set: cfg.Set, Pool: cfg.Pool}}
	}
	s := &Server{
		shards:    shards,
		maxKey:    cfg.MaxKey,
		maxBatch:  cfg.MaxBatch,
		autoBatch: cfg.AutoBatch,
		dom:       cfg.Obs,
		open:      make(map[net.Conn]struct{}),
	}
	if s.maxKey == 0 {
		s.maxKey = tree.MaxKey // the tightest structure bound in the repo
	}
	if s.maxBatch <= 0 {
		s.maxBatch = DefaultMaxBatch
	}
	s.mems = make([]sets.MemoryReporter, len(shards))
	anyMem := false
	for i, b := range shards {
		if mr, ok := b.Set.(sets.MemoryReporter); ok {
			s.mems[i] = mr
			anyMem = true
		}
	}
	s.scanOK, s.scanCap = scanCapability(shards)
	s.obsAddr = cfg.ObsAddr
	if cfg.Obs != nil {
		s.trace = true
		s.slow = obs.NewSlowlog(cfg.SlowlogSize, cfg.SlowlogWindow)
		cfg.Obs.SetSlowlog(s.slow)
		s.hot = make([]*obs.HotKeys, len(shards))
		for i := range s.hot {
			s.hot[i] = obs.NewHotKeys(cfg.HotKeyK)
		}
		cfg.Obs.SetHotKeys(s.hot)
		s.setDoms = make([]*obs.Domain, len(shards))
		for i, b := range shards {
			if or, ok := b.Set.(interface{ ObsDomain() *obs.Domain }); ok {
				s.setDoms[i] = or.ObsDomain()
			}
		}
		s.spanPool.New = func() any { return &obs.Span{} }
		s.probe = cfg.Obs.ServeProbe()
		cfg.Obs.Gauge("server_keys", func() uint64 { return uint64(s.keys.Load()) })
		cfg.Obs.Gauge("server_conns", func() uint64 { return uint64(s.conns.Load()) })
		cfg.Obs.Gauge("shard_count", func() uint64 { return uint64(len(s.shards)) })
		if anyMem {
			cfg.Obs.Gauge("live_nodes", func() uint64 { l, _ := s.memTotals(); return l })
			cfg.Obs.Gauge("deferred_nodes", func() uint64 { _, d := s.memTotals(); return d })
		}
		// Per-batch-size transaction gauges: the measured face of the
		// capacity cliff (aborts and serial fallbacks vs batch size).
		for b := 0; b < stm.BatchBuckets; b++ {
			b := b
			label := stm.BatchBucketLabel(b)
			cfg.Obs.Gauge("batch_txs_"+label, func() uint64 { return s.batchStat(b).Txs })
			cfg.Obs.Gauge("batch_aborts_"+label, func() uint64 { return s.batchStat(b).Aborts })
			cfg.Obs.Gauge("batch_serial_"+label, func() uint64 { return s.batchStat(b).Serial })
		}
	}
	return s
}

// scanCapability probes the shards for ASCEND support: every shard must
// implement sets.Ascender and, when it exposes a CanAscend capability
// check, report true (the list type implements the interface in every
// mode but can only run the cursor under RR/HTM — a misconfigured
// variant must be a capability miss at the wire, never a crash).
func scanCapability(shards []Backend) (bool, string) {
	for _, b := range shards {
		a, ok := b.Set.(sets.Ascender)
		if !ok {
			return false, "none"
		}
		if c, ok := a.(interface{ CanAscend() bool }); ok && !c.CanAscend() {
			return false, "none"
		}
	}
	if len(shards) > 1 {
		return true, "merged"
	}
	return true, "atomic-window"
}

// span starts a request span (nil when tracing is off — every stamping
// site nil-checks, so an untracing server pays one branch per site).
// Spans are pooled: Reset panics if a pooled span comes back unfinished,
// which turns a leaked span into a loud failure instead of a slow leak.
func (s *Server) span(verb string) *obs.Span {
	if !s.trace {
		return nil
	}
	sp := s.spanPool.Get().(*obs.Span)
	sp.Reset(verb)
	return sp
}

// finishSpan seals the span, offers it to the slowlog, feeds the per-key
// hot sketches, and returns it to the pool. Must be the last touch: the
// slowlog copies what it keeps and the pool will reuse the span.
func (s *Server) finishSpan(sp *obs.Span) {
	if sp == nil {
		return
	}
	total := sp.Finish()
	s.slow.Observe(sp)
	keys, _ := sp.Keys()
	aborts := sp.Aborts()
	for _, k := range keys {
		sh := ShardOf(k, len(s.shards))
		s.hot[sh].Latency.Add(k, total)
		if aborts > 0 {
			// Every key of the request is charged the request's aborts:
			// within one transaction there is no per-key attribution, and
			// for the sketch's purpose (which keys correlate with abort
			// churn) over-charging cold keys washes out while hot keys
			// accumulate exactly their conflict volume.
			s.hot[sh].Aborts.Add(k, aborts)
		}
	}
	s.spanPool.Put(sp)
}

// leaseFailed writes the ERR reply for a failed lease acquisition and
// reports whether the connection survives. Saturation is load shedding —
// reject this request, keep the pipeline — while anything else (the pool
// closing at shutdown) drops the connection.
func leaseFailed(bw *bufio.Writer, err error) bool {
	bw.WriteString("ERR ")
	bw.WriteString(err.Error())
	bw.WriteByte('\n')
	return errors.Is(err, ErrSaturated)
}

// batchStat sums one batch-size bucket's transaction counters across the
// shards' STM runtimes.
func (s *Server) batchStat(b int) stm.BatchStat {
	var out stm.BatchStat
	for _, bk := range s.shards {
		if r, ok := bk.Set.(interface{ TMStats() stm.Stats }); ok {
			st := r.TMStats().Batch[b]
			out.Txs += st.Txs
			out.Ops += st.Ops
			out.Aborts += st.Aborts
			out.Serial += st.Serial
		}
	}
	return out
}

// txTotals sums commit/serial/abort counters across the shards (the INFO
// fields the load generator derives serial-fallback rates from); writes is
// the part of commits that had a write set.
func (s *Server) txTotals() (commits, writes, serial, aborts uint64) {
	for _, bk := range s.shards {
		if r, ok := bk.Set.(interface{ TMStats() stm.Stats }); ok {
			st := r.TMStats()
			commits += st.Commits
			writes += st.WriteCommits
			serial += st.SerialCommits
			aborts += st.TotalAborts()
		}
	}
	return commits, writes, serial, aborts
}

// memTotals sums the shards' memory books.
func (s *Server) memTotals() (live, deferred uint64) {
	for _, mr := range s.mems {
		if mr != nil {
			live += mr.LiveNodes()
			deferred += mr.DeferredNodes()
		}
	}
	return live, deferred
}

// Len returns the number of keys present across all shards (as counted by
// this server's successful SET/DEL balance).
func (s *Server) Len() int64 { return s.keys.Load() }

// Shards returns how many shards the server routes across.
func (s *Server) Shards() int { return len(s.shards) }

// Serve accepts connections on ln until Shutdown closes it. It returns
// nil on a drain-initiated stop and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			_ = c.Close()
			continue
		}
		s.open[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(c)
	}
}

// Shutdown drains the server: stop accepting, give in-flight pipelines a
// grace period to finish, then wait for every connection goroutine (or
// force-close them when ctx ends first). The pools are closed last, which
// flushes every shard's worker slots.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	deadline := time.Now().Add(drainGrace)
	for c := range s.open {
		_ = c.SetReadDeadline(deadline)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.open {
			_ = c.Close()
		}
		s.mu.Unlock()
		<-done
		err = ctx.Err()
	}
	for _, b := range s.shards {
		b.Pool.Close()
	}
	return err
}

// connLeases tracks one connection's slot leases, at most one per shard,
// acquired lazily as requests route and all released when a burst ends.
type connLeases struct {
	handles []*Handle
	slots   []int
}

func newConnLeases(shards []Backend) *connLeases {
	l := &connLeases{
		handles: make([]*Handle, len(shards)),
		slots:   make([]int, len(shards)),
	}
	for i, b := range shards {
		l.handles[i] = b.Pool.Handle()
		l.slots[i] = -1
	}
	return l
}

// slot returns the lease on shard i, acquiring one if needed. The
// acquisition protocol is try-then-release-and-block: take shard i's
// slot immediately if one is free (keeping the burst's other leases
// warm), but when shard i is out of slots, give back every lease this
// connection holds before queueing. Blocking on one shard while holding
// another is the hold-and-wait half of a deadlock cycle — with one slot
// per shard, connection A holding shard 0 and waiting on shard 1 while
// connection B holds 1 and waits on 0 would stall the server for good.
// A non-nil sp gets any queued time stamped as its Wait phase.
func (l *connLeases) slot(i int, sp *obs.Span) (int, error) {
	if l.slots[i] >= 0 {
		return l.slots[i], nil
	}
	if slot, ok := l.handles[i].TryAcquire(); ok {
		l.slots[i] = slot
		return slot, nil
	}
	l.releaseAll()
	slot, err := l.handles[i].AcquireSpan(context.Background(), sp)
	if err != nil {
		return -1, err
	}
	l.slots[i] = slot
	return slot, nil
}

// releaseAll returns every held lease.
func (l *connLeases) releaseAll() {
	for i, slot := range l.slots {
		if slot >= 0 {
			l.handles[i].Release(slot)
			l.slots[i] = -1
		}
	}
}

// conn is one connection's serving state: the scanner, writer, leases,
// and — the point of this struct — the reused scratch buffers that make
// the steady-state request path free of heap allocations. Everything here
// is sized once (or grows to a high-water mark) per connection; per
// request nothing escapes. alloc_test.go pins the budget at zero.
type conn struct {
	srv    *Server
	br     *bufio.Reader
	bw     *bufio.Writer
	sc     *LineScanner
	leases *connLeases

	scratch  []byte        // reply/error rendering
	pend     []sets.Op     // auto-batch accumulation
	ops      []sets.Op     // MULTI body
	results  []sets.Result // execOps: per-op outcomes, op order
	executed []bool        // execOps: which ops ran before a lease failure
	idx      []int         // execOps: single-shard identity index
	subOps   [][]sets.Op   // execOps: per-shard op split
	subIdx   [][]int       // execOps: per-shard original positions
	cursors  []shardCursor // ASCEND merge state
}

// writeErr renders "ERR <diagnosis>\n".
func (c *conn) writeErr(we wireErr) {
	c.scratch = append(c.scratch[:0], "ERR "...)
	c.scratch = appendWireErr(c.scratch, we, c.srv.maxKey)
	c.scratch = append(c.scratch, '\n')
	c.bw.Write(c.scratch)
}

// handle runs one connection: read a line, lease a slot on the target
// shard (kept across a burst of buffered requests), execute, reply. With
// AutoBatch configured, consecutive single-key lines accumulate into a
// pending batch that executes (as capacity-split batch transactions) when
// the burst ends, a non-key verb arrives, or the split threshold fills.
func (s *Server) handle(nc net.Conn) {
	s.conns.Add(1)
	defer func() {
		s.conns.Add(-1)
		s.mu.Lock()
		delete(s.open, nc)
		s.mu.Unlock()
		_ = nc.Close()
		s.wg.Done()
	}()

	br := bufio.NewReaderSize(nc, 4<<10)
	c := &conn{
		srv:    s,
		br:     br,
		bw:     bufio.NewWriterSize(nc, 4<<10),
		sc:     NewLineScanner(br),
		leases: newConnLeases(s.shards),
	}
	defer c.leases.releaseAll()

	flush := func() bool {
		if len(c.pend) == 0 {
			return true
		}
		ok := c.execOps(c.pend, s.autoBatch, true)
		c.pend = c.pend[:0]
		return ok
	}
	for {
		if s.draining.Load() && br.Buffered() == 0 {
			_ = c.bw.Flush()
			return
		}
		line, err := c.sc.Line()
		if err != nil && len(line) == 0 {
			_ = flush()
			_ = c.bw.Flush()
			return
		}
		// err != nil with a non-empty line is a final unterminated
		// request: serve it, then drop the conn.
		coalesced := false
		if s.autoBatch > 1 {
			if op, we := s.parseOp(line); we.code == wireOK {
				c.pend = append(c.pend, op)
				coalesced = true
				if len(c.pend) >= s.autoBatch && !flush() {
					_ = c.bw.Flush()
					return
				}
			}
		}
		if !coalesced {
			// Anything that is not a clean single-key request (including
			// MULTI, LEN, INFO, and malformed keys) first drains the
			// pending batch so replies stay in order.
			if !flush() || !c.serveLine(line) {
				_ = c.bw.Flush()
				return
			}
		}
		if br.Buffered() == 0 {
			// Burst over: run what accumulated, give the slots back before
			// blocking on the network, and push the replies out.
			if !flush() {
				_ = c.bw.Flush()
				return
			}
			c.leases.releaseAll()
			if ferr := c.bw.Flush(); ferr != nil || err != nil {
				return
			}
		}
	}
}

// serveLine executes one request line and appends the reply to the
// writer. It returns false when the connection must drop (a lease could
// not be acquired — saturation or shutdown — or a MULTI frame was
// unrecoverable). The line aliases the scanner's buffer: everything that
// must outlive the next read is parsed or copied out here.
func (c *conn) serveLine(line []byte) bool {
	s := c.srv
	bw := c.bw
	verb, rest := cutSpace(line)
	switch string(verb) {
	case "GET", "SET", "DEL":
		key, we := s.parseKey(rest)
		if we.code != wireOK {
			c.writeErr(we)
			return true
		}
		var vs string
		switch verb[0] {
		case 'G':
			vs = "GET"
		case 'S':
			vs = "SET"
		default:
			vs = "DEL"
		}
		shard := ShardOf(key, len(s.shards))
		sp := s.span(vs)
		if sp != nil {
			sp.AddKey(key)
			sp.MarkShard(shard)
		}
		slot, err := c.leases.slot(shard, sp)
		if err != nil {
			// The span still finishes: a shed request is a tail-latency
			// event too (all wait, no work), and the slowlog should show it.
			s.finishSpan(sp)
			return leaseFailed(bw, err)
		}
		sampled := s.dom != nil && s.dom.Sampled(uint64(slot))
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		set := s.shards[shard].Set
		var dom *obs.Domain
		var opT0 time.Time
		if sp != nil {
			dom = s.setDoms[shard]
			dom.SetSpan(slot, sp)
			opT0 = time.Now()
		}
		var ok bool
		switch verb[0] {
		case 'G':
			ok = set.Lookup(slot, key)
		case 'S':
			if ok = set.Insert(slot, key); ok {
				s.keys.Add(1)
			}
		default:
			if ok = set.Remove(slot, key); ok {
				s.keys.Add(-1)
			}
		}
		if sp != nil {
			sp.Add(obs.SpanLease, uint64(time.Since(opT0)))
			dom.SetSpan(slot, nil)
		}
		if sampled {
			d := uint64(time.Since(t0))
			switch verb[0] {
			case 'G':
				s.probe.GetNs.RecordAt(uint64(slot), d)
			case 'S':
				s.probe.SetNs.RecordAt(uint64(slot), d)
			default:
				s.probe.DelNs.RecordAt(uint64(slot), d)
			}
		}
		var wT0 time.Time
		if sp != nil {
			wT0 = time.Now()
		}
		if ok {
			bw.WriteString("1\n")
		} else {
			bw.WriteString("0\n")
		}
		if sp != nil {
			sp.Add(obs.SpanWrite, uint64(time.Since(wT0)))
			s.finishSpan(sp)
		}
	case "MULTI":
		return c.serveMulti(rest)
	case "ASCEND":
		return c.serveAscend(rest)
	case "SLOWLOG":
		c.serveSlowlog(rest)
	case "LEN":
		c.scratch = strconv.AppendInt(c.scratch[:0], s.keys.Load(), 10)
		c.scratch = append(c.scratch, '\n')
		bw.Write(c.scratch)
	case "INFO":
		// INFO is the cold aggregate view (monitors poll it a few times a
		// second); fmt is fine here and keeps the field list readable.
		live, deferred := s.memTotals()
		multi := "atomic"
		if len(s.shards) > 1 {
			multi = "per-shard"
		}
		commits, writes, serial, aborts := s.txTotals()
		fmt.Fprintf(bw, "variant=%s shards=%d slots=%d keys=%d live=%d deferred=%d conns=%d maxbatch=%d autobatch=%d multi=%s scan=%s commits=%d ro_commits=%d rw_commits=%d serial=%d aborts=%d",
			s.shards[0].Set.Name(), len(s.shards), s.shards[0].Pool.Slots(),
			s.keys.Load(), live, deferred, s.conns.Load(),
			s.maxBatch, s.autoBatch, multi, s.scanCap, commits, commits-writes, writes, serial, aborts)
		if s.obsAddr != "" {
			fmt.Fprintf(bw, " obs=%s", s.obsAddr)
		}
		bw.WriteByte('\n')
	case "":
		bw.WriteString("ERR empty command\n")
	default:
		bw.WriteString("ERR unknown command\n")
	}
	return true
}

// serveAscend executes one ASCEND <lo> <n> request: stream up to n keys
// ≥ lo as "OK <k>" lines, terminated by END. Each shard's cursor is
// pulled one bounded chunk at a time; every pull is a self-contained
// sub-scan that drops its reservation hold before returning, so no
// cursor position is ever held while the connection's lease on that
// shard could be released and re-leased to another connection (a hold
// outliving its lease would make the slot's next owner resume from a
// stale position). A lease failure mid-stream terminates the scan with
// an ERR line — the scan's alternate terminator — and the connection
// survives iff the failure was saturation.
func (c *conn) serveAscend(args []byte) bool {
	s := c.srv
	bw := c.bw
	loArg, nArg := cutSpace(args)
	if nArg == nil {
		bw.WriteString("ERR ascend: want ASCEND <lo> <n>\n")
		return true
	}
	lo, we := s.parseKey(loArg)
	if we.code != wireOK {
		c.scratch = append(c.scratch[:0], "ERR ascend: "...)
		c.scratch = appendWireErr(c.scratch, we, s.maxKey)
		c.scratch = append(c.scratch, '\n')
		bw.Write(c.scratch)
		return true
	}
	n, nok := parseIntBytes(nArg)
	if !nok || n < 1 {
		c.scratch = append(c.scratch[:0], "ERR ascend: bad count "...)
		c.scratch = appendQuoted(c.scratch, nArg)
		c.scratch = append(c.scratch, '\n')
		bw.Write(c.scratch)
		return true
	}
	if !s.scanOK {
		bw.WriteString("ERR scan unsupported\n")
		return true
	}
	sp := s.span("ASCEND")
	if sp != nil {
		sp.AddKey(lo)
		defer s.finishSpan(sp)
	}
	sampled := s.dom != nil && s.dom.Sampled(lo)
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	if cap(c.cursors) < len(s.shards) {
		c.cursors = make([]shardCursor, len(s.shards))
	}
	cursors := c.cursors[:len(s.shards)]
	for i := range cursors {
		cursors[i] = shardCursor{next: lo}
	}
	emitted := 0
	for emitted < n {
		// Refill every empty, non-exhausted shard buffer (ascending shard
		// order — the MULTI grouped-lease discipline, so two scans can
		// never deadlock on each other's slots).
		for i := range cursors {
			cur := &cursors[i]
			if cur.done || len(cur.buf) > 0 {
				continue
			}
			if sp != nil {
				sp.MarkShard(i)
			}
			slot, err := c.leases.slot(i, sp)
			if err != nil {
				bw.WriteString("ERR ascend: ")
				bw.WriteString(err.Error())
				bw.WriteByte('\n')
				return errors.Is(err, ErrSaturated)
			}
			max := ascendChunk
			if rem := n - emitted; rem < max {
				max = rem
			}
			a, aok := s.shards[i].Set.(sets.Ascender)
			if !aok {
				bw.WriteString("ERR scan unsupported\n")
				return true
			}
			// Each chunk pull runs its window transactions with the span
			// armed on the shard's domain, so cursor commits and
			// renavigations stamp the tx phases; the pull itself counts as
			// Lease time (Finish nets the inner phases back out).
			var dom *obs.Domain
			var pullT0 time.Time
			if sp != nil {
				dom = s.setDoms[i]
				dom.SetSpan(slot, sp)
				pullT0 = time.Now()
			}
			err = cur.pull(a, slot, max)
			if sp != nil {
				sp.Add(obs.SpanLease, uint64(time.Since(pullT0)))
				dom.SetSpan(slot, nil)
			}
			if err != nil {
				// Defensive: capability was probed at construction, but a
				// variant may still refuse at run time.
				bw.WriteString("ERR scan unsupported\n")
				return true
			}
		}
		// Emit the smallest buffered key. Shards partition keys and each
		// shard's cursor is monotonic, so the merged stream is strictly
		// ascending and exactly-once for keys present throughout.
		best := -1
		for i := range cursors {
			if len(cursors[i].buf) == 0 {
				continue
			}
			if best < 0 || cursors[i].buf[0] < cursors[best].buf[0] {
				best = i
			}
		}
		if best < 0 {
			break // every shard exhausted
		}
		c.scratch = append(c.scratch[:0], "OK "...)
		c.scratch = strconv.AppendUint(c.scratch, cursors[best].buf[0], 10)
		c.scratch = append(c.scratch, '\n')
		bw.Write(c.scratch)
		cursors[best].buf = cursors[best].buf[1:]
		emitted++
	}
	var wT0 time.Time
	if sp != nil {
		wT0 = time.Now()
	}
	bw.WriteString("END\n")
	if sp != nil {
		sp.Add(obs.SpanWrite, uint64(time.Since(wT0)))
	}
	if sampled {
		s.probe.AscendNs.RecordAt(lo, uint64(time.Since(t0)))
	}
	return true
}

// serveSlowlog answers SLOWLOG <n>: up to n SLOW lines, slowest first,
// terminated by END (the ASCEND framing, so one-shot clients reuse the
// same reader). Each line is the wire rendering of one slowlog entry —
// total, phase breakdown, attempt/abort counts, keys, shards and abort
// owners as key=value fields, built with append into the connection's
// one scratch buffer (a fresh strings.Builder per field per entry was
// the old cost). Servers running without an obs domain have no slowlog
// and answer a single ERR line.
func (c *conn) serveSlowlog(countArg []byte) {
	s := c.srv
	n, nok := parseIntBytes(countArg)
	if !nok || n < 1 {
		c.scratch = append(c.scratch[:0], "ERR slowlog: bad count "...)
		c.scratch = appendQuoted(c.scratch, countArg)
		c.scratch = append(c.scratch, '\n')
		c.bw.Write(c.scratch)
		return
	}
	if !s.trace {
		c.bw.WriteString("ERR slowlog unavailable (server has no obs domain)\n")
		return
	}
	for rank, e := range s.slow.Entries(n) {
		b := append(c.scratch[:0], "SLOW rank="...)
		b = strconv.AppendInt(b, int64(rank+1), 10)
		b = append(b, " verb="...)
		b = append(b, e.Verb...)
		b = append(b, " total_ns="...)
		b = strconv.AppendUint(b, e.TotalNs, 10)
		b = append(b, " worst="...)
		b = append(b, e.WorstPhase...)
		b = append(b, " wait_ns="...)
		b = strconv.AppendUint(b, e.WaitNs, 10)
		b = append(b, " lease_ns="...)
		b = strconv.AppendUint(b, e.LeaseNs, 10)
		b = append(b, " attempts_ns="...)
		b = strconv.AppendUint(b, e.AttemptsNs, 10)
		b = append(b, " serial_ns="...)
		b = strconv.AppendUint(b, e.SerialNs, 10)
		b = append(b, " reclaim_ns="...)
		b = strconv.AppendUint(b, e.ReclaimNs, 10)
		b = append(b, " write_ns="...)
		b = strconv.AppendUint(b, e.WriteNs, 10)
		b = append(b, " attempts="...)
		b = strconv.AppendUint(b, uint64(e.Attempts), 10)
		b = append(b, " serial_txs="...)
		b = strconv.AppendUint(b, uint64(e.SerialTxs), 10)
		b = append(b, " keys="...)
		b = appendUints(b, e.Keys)
		b = append(b, " key_n="...)
		b = strconv.AppendInt(b, int64(e.KeyN), 10)
		b = append(b, " shards="...)
		b = appendInts(b, e.Shards)
		b = append(b, " owners="...)
		b = appendInt32s(b, e.Owners)
		b = append(b, '\n')
		c.scratch = b
		c.bw.Write(b)
	}
	c.bw.WriteString("END\n")
}

// appendUints renders a list as comma-separated decimals ("-" when
// empty, so the SLOW line's field count is stable for text tooling).
func appendUints(dst []byte, v []uint64) []byte {
	if len(v) == 0 {
		return append(dst, '-')
	}
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, x, 10)
	}
	return dst
}

func appendInts(dst []byte, v []int) []byte {
	if len(v) == 0 {
		return append(dst, '-')
	}
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return dst
}

func appendInt32s(dst []byte, v []int32) []byte {
	if len(v) == 0 {
		return append(dst, '-')
	}
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return dst
}

// parseKey validates a decimal key in [1, maxKey], straight off the line
// bytes — no string materializes, and the three failure shapes are value
// diagnoses, not heap-allocated errors.
func (s *Server) parseKey(arg []byte) (uint64, wireErr) {
	if len(arg) == 0 {
		return 0, wireErr{code: errMissingKey}
	}
	key, ok := parseUintBytes(arg)
	if !ok {
		return 0, wireErr{code: errBadKey, arg: arg}
	}
	if key < 1 || key > s.maxKey {
		return 0, wireErr{code: errKeyRange, key: key}
	}
	return key, wireErr{}
}

// parseOp parses one single-key request line (GET/SET/DEL) into a set op.
// Everything else — other verbs, malformed keys — errors, which routes the
// line back to serveLine's per-verb handling.
func (s *Server) parseOp(line []byte) (sets.Op, wireErr) {
	verb, rest := cutSpace(line)
	var kind sets.OpKind
	switch string(verb) {
	case "GET":
		kind = sets.OpLookup
	case "SET":
		kind = sets.OpInsert
	case "DEL":
		kind = sets.OpRemove
	default:
		return sets.Op{}, wireErr{code: errNotKeyOp}
	}
	key, we := s.parseKey(rest)
	if we.code != wireOK {
		return sets.Op{}, we
	}
	return sets.Op{Kind: kind, Key: key}, wireErr{}
}

// writeMultiOversize renders serveMulti's oversized-batch rejection.
func (c *conn) writeMultiOversize(n int) {
	c.scratch = append(c.scratch[:0], "ERR multi: batch of "...)
	c.scratch = strconv.AppendInt(c.scratch, int64(n), 10)
	c.scratch = append(c.scratch, " exceeds max "...)
	c.scratch = strconv.AppendInt(c.scratch, int64(c.srv.maxBatch), 10)
	c.scratch = append(c.scratch, '\n')
	c.bw.Write(c.scratch)
}

// serveMulti reads and executes one MULTI frame: countArg body lines, each
// a GET/SET/DEL request, run as one batch transaction per shard touched.
// Any rejection is a single ERR line and executes nothing. To keep the
// connection usable after a rejection the body must still be consumed:
// a parse failure drains the remaining body lines, and an oversized count
// is drained only up to maxBatch×oversizeDrainFactor lines (beyond that
// the connection drops — false — rather than stream unbounded garbage).
// A malformed count is not drained at all: the client did not follow the
// grammar, so there is no body to be in frame with. Draining goes through
// the reused line scanner: a rejected frame used to re-allocate a string
// per drained line, which made garbage cheaper to send than to refuse.
func (c *conn) serveMulti(countArg []byte) bool {
	s := c.srv
	n, nok := parseIntBytes(countArg)
	if !nok || n < 1 {
		c.scratch = append(c.scratch[:0], "ERR multi: bad count "...)
		c.scratch = appendQuoted(c.scratch, countArg)
		c.scratch = append(c.scratch, '\n')
		c.bw.Write(c.scratch)
		return true
	}
	drain := func(k int) bool {
		for i := 0; i < k; i++ {
			if line, err := c.sc.Line(); err != nil && len(line) == 0 {
				return false
			}
		}
		return true
	}
	if n > s.maxBatch {
		if n > s.maxBatch*oversizeDrainFactor {
			c.writeMultiOversize(n)
			return false
		}
		ok := drain(n)
		c.writeMultiOversize(n)
		return ok
	}
	c.ops = c.ops[:0]
	for i := 0; i < n; i++ {
		line, err := c.sc.Line()
		if err != nil && len(line) == 0 {
			return false
		}
		op, we := s.parseOp(line)
		if we.code != wireOK {
			ok := drain(n - 1 - i)
			c.scratch = append(c.scratch[:0], "ERR multi: op "...)
			c.scratch = strconv.AppendInt(c.scratch, int64(i), 10)
			c.scratch = append(c.scratch, ": "...)
			c.scratch = appendWireErr(c.scratch, we, s.maxKey)
			c.scratch = append(c.scratch, '\n')
			c.bw.Write(c.scratch)
			return ok
		}
		c.ops = append(c.ops, op)
	}
	// Explicit MULTI is never capacity-split (split=0): the client asked
	// for atomicity, so an over-capacity batch takes the serial fallback
	// instead — that cliff is the measurement, not a failure.
	return c.execOps(c.ops, 0, false)
}

// execOps runs a batch of single-key ops and writes one 1/0 reply line per
// op, in op order. Ops group by shard (order preserved within a shard) and
// each shard's sub-batch executes through Set.Apply as one transaction —
// unless split > 0, in which case sub-batches chunk into transactions of
// at most split ops (the capacity-aware split used for auto-batching,
// where no atomicity was promised).
//
// A lease failure stops execution at that shard (shards already run keep
// their effects: atomicity is per-shard). How the failure is reported
// depends on where the ops came from. perOpErr=true is the auto-batch
// path — each op was an individual pipelined request owed its own reply
// line, so executed ops answer 1/0 and unexecuted ops answer ERR.
// perOpErr=false is the MULTI path — a rejected frame answers a single
// ERR line with no body replies, matching serveMulti's other rejections.
// Either way the return value follows the shedding contract: true (keep
// the connection) iff the failure was saturation.
func (c *conn) execOps(ops []sets.Op, split int, perOpErr bool) bool {
	s := c.srv
	bw := c.bw
	verb := "MULTI"
	if perOpErr {
		verb = "BATCH" // auto-batched pipelined burst
	}
	sp := s.span(verb)
	if sp != nil {
		for _, op := range ops {
			sp.AddKey(op.Key)
		}
	}
	sampled := s.dom != nil && s.dom.Sampled(uint64(len(ops)))
	var t0 time.Time
	txs := 0
	if sampled {
		t0 = time.Now()
	}
	if cap(c.results) < len(ops) {
		c.results = make([]sets.Result, len(ops))
		c.executed = make([]bool, len(ops))
	}
	results := c.results[:len(ops)]
	executed := c.executed[:len(ops)]
	for i := range executed {
		executed[i] = false
	}
	var leaseErr error
	run := func(shard int, sub []sets.Op, idx []int) bool {
		if sp != nil {
			sp.MarkShard(shard)
		}
		slot, err := c.leases.slot(shard, sp)
		if err != nil {
			leaseErr = err
			return false
		}
		set := s.shards[shard].Set
		var dom *obs.Domain
		var opT0 time.Time
		if sp != nil {
			dom = s.setDoms[shard]
			dom.SetSpan(slot, sp)
			opT0 = time.Now()
		}
		for len(sub) > 0 {
			chunk := sub
			if split > 0 && len(chunk) > split {
				chunk = chunk[:split]
			}
			txs++
			if sampled {
				s.probe.BatchOp.RecordAt(uint64(slot), uint64(len(chunk)))
			}
			for i, r := range set.Apply(slot, chunk) {
				results[idx[i]] = r
				executed[idx[i]] = true
				if r {
					switch chunk[i].Kind {
					case sets.OpInsert:
						s.keys.Add(1)
					case sets.OpRemove:
						s.keys.Add(-1)
					}
				}
			}
			sub = sub[len(chunk):]
			idx = idx[len(chunk):]
		}
		if sp != nil {
			sp.Add(obs.SpanLease, uint64(time.Since(opT0)))
			dom.SetSpan(slot, nil)
		}
		return true
	}
	if len(s.shards) == 1 {
		if cap(c.idx) < len(ops) {
			c.idx = make([]int, len(ops))
		}
		idx := c.idx[:len(ops)]
		for i := range idx {
			idx[i] = i
		}
		run(0, ops, idx)
	} else {
		if len(c.subOps) < len(s.shards) {
			c.subOps = make([][]sets.Op, len(s.shards))
			c.subIdx = make([][]int, len(s.shards))
		}
		subOps := c.subOps[:len(s.shards)]
		subIdx := c.subIdx[:len(s.shards)]
		for i := range subOps {
			subOps[i] = subOps[i][:0]
			subIdx[i] = subIdx[i][:0]
		}
		for i, op := range ops {
			sh := ShardOf(op.Key, len(s.shards))
			subOps[sh] = append(subOps[sh], op)
			subIdx[sh] = append(subIdx[sh], i)
		}
		for sh := range subOps {
			if len(subOps[sh]) == 0 {
				continue
			}
			if !run(sh, subOps[sh], subIdx[sh]) {
				break
			}
		}
		copy(c.subOps, subOps)
		copy(c.subIdx, subIdx)
	}
	if sampled {
		s.probe.BatchNs.RecordAt(uint64(len(ops)), uint64(time.Since(t0)))
		s.probe.Splits.RecordAt(uint64(len(ops)), uint64(txs))
	}
	var wT0 time.Time
	if sp != nil {
		wT0 = time.Now()
	}
	defer func() {
		if sp != nil {
			sp.Add(obs.SpanWrite, uint64(time.Since(wT0)))
			s.finishSpan(sp)
		}
	}()
	if leaseErr != nil && !perOpErr {
		bw.WriteString("ERR multi: ")
		bw.WriteString(leaseErr.Error())
		bw.WriteByte('\n')
		return errors.Is(leaseErr, ErrSaturated)
	}
	for i, r := range results {
		switch {
		case leaseErr != nil && !executed[i]:
			bw.WriteString("ERR ")
			bw.WriteString(leaseErr.Error())
			bw.WriteByte('\n')
		case r:
			bw.WriteString("1\n")
		default:
			bw.WriteString("0\n")
		}
	}
	if leaseErr != nil {
		return errors.Is(leaseErr, ErrSaturated)
	}
	return true
}
