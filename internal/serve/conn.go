package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"

	"hohtx/internal/obs"
	"hohtx/internal/sets"
)

// The request pipeline. Every line a connection reads goes through the
// same five stages, and each stage exists once; a sixth runs once per
// pipelined burst:
//
//	parse    serveLine → lookupVerb: one table lookup per line
//	plan     ShardOf for one key, splitByShard / mergeAscend for many
//	bracket  enter … leave: lease the shard's worker slot, arm the span
//	execute  the set operation(s) under the slot
//	render   reply bytes; reject for diagnoses, shed for lease refusals
//	publish  endBurst: slots back, hot-key charges out, flush
//
// GET, SET and DEL wait in pend until the burst ends, another verb comes
// or MaxBatch are pending: a lone one then runs on its own (serveOne), two
// or more as one hand-over-hand pass per shard (servePass, a BATCH span).
// A traced lone request reads the clock (obs.Now) once, when its reply is
// rendered; MULTI, BATCH and ASCEND, which render many lines, read it at
// three stage boundaries — span armed, execution done, reply rendered.
// Each stamp serves everyone who needs that boundary: the last one is also
// the next request's start. DESIGN.md §9 holds the contract as a table
// (verb × stage, failure reply, span phases stamped).

// verb is one row of the protocol's verb table.
type verb struct {
	name string
	// point marks GET/SET/DEL: one key, one set operation of the given
	// kind, timed into hist when it runs alone — what MULTI bodies and
	// passes take.
	point  bool
	kind   sets.OpKind
	hist   func(*obs.ServeProbe) *obs.Histogram
	stream bool // a reply of many lines through END (Streams)
	// serve runs the request and appends its reply; false drops the
	// connection.
	serve func(c *conn, v *verb, args []byte) bool
}

// verbs is filled by init (the handlers reach back to it through
// lookupVerb, which a composite-literal initializer may not). The point
// rows come first, in OpKind order (AppendRequest and serveOne index
// them), and the last row answers any name the others do not.
var verbs []verb

func init() {
	verbs = []verb{
		{name: "GET", point: true, kind: sets.OpLookup, serve: (*conn).servePoint,
			hist: func(p *obs.ServeProbe) *obs.Histogram { return p.GetNs }},
		{name: "SET", point: true, kind: sets.OpInsert, serve: (*conn).servePoint,
			hist: func(p *obs.ServeProbe) *obs.Histogram { return p.SetNs }},
		{name: "DEL", point: true, kind: sets.OpRemove, serve: (*conn).servePoint,
			hist: func(p *obs.ServeProbe) *obs.Histogram { return p.DelNs }},
		{name: "MULTI", serve: (*conn).serveMulti},
		{name: "ASCEND", serve: (*conn).serveAscend, stream: true},
		{name: "SLOWLOG", serve: (*conn).serveSlowlog, stream: true},
		{name: "LEN", serve: (*conn).serveLen},
		{name: "INFO", serve: (*conn).serveInfo},
		{name: "", serve: func(c *conn, _ *verb, _ []byte) bool { return c.reject("empty command", wireErr{}) }},
		{serve: func(c *conn, _ *verb, _ []byte) bool { return c.reject("unknown command", wireErr{}) }},
	}
}

func lookupVerb(name []byte) *verb {
	last := len(verbs) - 1
	for i := range verbs[:last] {
		if string(name) == verbs[i].name {
			return &verbs[i]
		}
	}
	return &verbs[last]
}

// keyDelta is what a successful op of each kind does to the key count.
var keyDelta = [...]int64{sets.OpLookup: 0, sets.OpInsert: 1, sets.OpRemove: -1}

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

	scratch []byte        // reply/error rendering
	pend    []sets.Op     // point requests waiting for their burst's end
	ops     []sets.Op     // MULTI body
	results []sets.Result // execOps, servePass: per-op outcomes, op order
	plan    shardPlan     // execOps, servePass: the ops split by shard
	refused []error       // servePass: per shard, why its lease was refused
	cursors []shardCursor // ASCEND: the merge's per-shard state

	// Request forensics, used only by a server with an obs domain: a
	// connection has one request in flight, so it owns the one span, and
	// what finished requests owe the shared hot-key sketches waits in burst
	// until the burst ends.
	id    uint64    // per-connection hint: sampling gate, histogram shard
	sp    obs.Span  // the request in flight
	last  int64     // obs.Now() at the previous request's end; 0 = none to chain from
	burst obs.Burst // unpublished hot-key charges
}

func (s *Server) newConn(r io.Reader, w io.Writer) *conn {
	c := &conn{
		srv:     s,
		bw:      bufio.NewWriterSize(w, 4<<10),
		leases:  newConnLeases(s.shards),
		refused: make([]error, len(s.shards)),
		cursors: make([]shardCursor, len(s.shards)),
		id:      s.connSeq.Add(1),
		burst:   obs.NewBurst(s.hot),
	}
	c.br = bufio.NewReaderSize(chainBreaker{r, c}, 4<<10)
	c.sc = NewLineScanner(c.br)
	return c
}

// chainBreaker is the reader under a connection's buffer. Any read that
// reaches it may wait for the client — the buffer was empty, or held only
// the head of a line — and how long a client takes to send is not service
// time, so the next request stamps its own start instead of chaining.
type chainBreaker struct {
	r io.Reader
	c *conn
}

func (b chainBreaker) Read(p []byte) (int, error) {
	b.c.last = 0
	return b.r.Read(p)
}

// endBurst closes a pipelined burst: every slot goes back before the
// connection blocks on the network, and the burst's forensics are
// published before its replies are flushed — a client holding a reply
// finds that request in /hotkeys.
func (c *conn) endBurst() {
	c.leases.releaseAll()
	c.burst.Publish()
}

// handle runs one connection: read a line, serve it, and when the burst of
// buffered requests is over give every slot back and push the replies out.
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
	c := s.newConn(nc, nc)
	defer c.endBurst()
	for {
		if s.draining.Load() && c.br.Buffered() == 0 {
			break
		}
		line, err := c.sc.Line()
		if err != nil && len(line) == 0 {
			_ = c.flushPend()
			break
		}
		// err != nil with a non-empty line is a final unterminated
		// request: serve it, then drop the conn.
		if !c.serveLine(line) {
			break
		}
		if c.br.Buffered() == 0 {
			// Burst over: run what is pending, then publish and push the
			// replies out.
			if !c.flushPend() {
				break
			}
			c.endBurst()
			if ferr := c.bw.Flush(); ferr != nil || err != nil {
				return
			}
		}
	}
	_ = c.bw.Flush()
}

// serveLine runs one request line through the pipeline and reports whether
// the connection survives. The line aliases the scanner's buffer:
// everything that must outlive the next read is parsed or copied out here.
// Any verb but a point op first runs the pending point requests, so replies
// stay in request order.
func (c *conn) serveLine(line []byte) bool {
	name, args := cutSpace(line)
	v := lookupVerb(name)
	if !v.point && !c.flushPend() {
		return false
	}
	chained := c.last
	keep := v.serve(c, v, args)
	if c.last == chained && len(c.pend) == 0 {
		// The line finished no span and left none pending (LEN, INFO,
		// SLOWLOG, a rejection): what it cost is not the next request's,
		// which stamps its own start.
		c.last = 0
	}
	return keep
}

// flushPend runs the pending point requests: a lone one on its own, two or
// more as one pass per shard.
func (c *conn) flushPend() bool {
	var ok bool
	switch len(c.pend) {
	case 0:
		return true
	case 1:
		ok = c.serveOne(c.pend[0])
	default:
		ok = c.servePass(c.pend)
	}
	c.pend = c.pend[:0]
	return ok
}

// reject renders "ERR <scope><diagnosis>\n" — every malformed-request
// reply. The connection always survives one, hence the constant true.
func (c *conn) reject(scope string, we wireErr) bool {
	bound := c.srv.maxKey
	if we.code == errOversize {
		bound = uint64(c.srv.maxBatch)
	}
	c.scratch = append(append(c.scratch[:0], "ERR "...), scope...)
	c.scratch = append(appendWireErr(c.scratch, we, bound), '\n')
	c.bw.Write(c.scratch)
	return true
}

// shed renders "ERR <scope><err>\n" for a lease that could not be had and
// reports whether the connection survives. Saturation is load shedding —
// refuse this request, keep the pipeline — while anything else (the pool
// closing at shutdown) drops the connection.
func (c *conn) shed(scope string, err error) bool {
	c.bw.WriteString("ERR ")
	c.bw.WriteString(scope)
	c.bw.WriteString(err.Error())
	c.bw.WriteByte('\n')
	return errors.Is(err, ErrSaturated)
}

func (c *conn) writeBit(r sets.Result) {
	bit := "0\n"
	if r {
		bit = "1\n"
	}
	c.bw.WriteString(bit)
}

// begin arms the connection's span for a request, carrying key when it is
// one (keys start at 1); nil when tracing is off. The request starts where
// the previous one of its burst ended; a burst's first stamps its own.
// Reset panics if the last request's path never finished the span, which
// turns a leaked span into a loud failure.
func (c *conn) begin(verb string, key uint64) *obs.Span {
	if c.srv.dom == nil {
		return nil
	}
	start := c.last
	if start == 0 {
		start = obs.Now()
	}
	c.sp.Reset(verb, start)
	if key != 0 {
		c.sp.AddKey(key)
	}
	return &c.sp
}

// stamp reads the clock only for a traced request.
func stamp(sp *obs.Span) (t int64) {
	if sp != nil {
		t = obs.Now()
	}
	return t
}

// sampled is the gate on the serve histograms.
func (c *conn) sampled() bool { return c.srv.dom != nil && c.srv.dom.Sampled(c.id) }

// finish stamps the request's end, the reply write begun at w0 over, and
// seals the span there. The end stamp, returned, is the next request's
// start.
func (c *conn) finish(sp *obs.Span, w0 int64) (end int64) {
	if sp == nil {
		return 0
	}
	end = obs.Now()
	sp.Add(obs.SpanWrite, uint64(end-w0))
	c.seal(sp, end)
	return end
}

// seal ends the request at end, a stamp taken after its reply was
// rendered: the span finishes and is offered to the slowlog — every request
// is, the offer is two atomic loads — and its keys' hot-key charges wait in
// burst. end is the next request's start. Nothing writes the span after
// it: the slowlog has copied what it keeps and begin will re-arm it.
func (c *conn) seal(sp *obs.Span, end int64) {
	c.last = end
	total := sp.Finish(end)
	c.srv.slow.Observe(sp)
	// Every key of the request is charged the request's aborts: within one
	// transaction there is no per-key attribution, and for the sketch's
	// purpose (which keys correlate with abort churn) over-charging cold
	// keys washes out while hot keys accumulate exactly their conflict
	// volume.
	keys, _ := sp.Keys()
	aborts := sp.Aborts()
	for _, k := range keys {
		c.burst.Key(ShardOf(k, len(c.srv.shards)), k, total, aborts)
	}
}

// enter opens the bracket every execution runs in, whatever the verb: mark
// the shard on the span, lease the shard's worker slot (kept for the rest
// of the burst), and arm the span on the shard's own domain so its stm
// runtime and reclamation scheme stamp their phases into it; leave disarms
// it. Neither reads the clock: what the request spends here and in the
// structure outside those stamped phases is the span's Lease remainder. A
// failed enter needs no leave.
func (c *conn) enter(shard int, sp *obs.Span) (slot int, err error) {
	sp.MarkShard(shard)
	if slot, err = c.leases.slot(shard, sp); err == nil && sp != nil {
		c.srv.view.doms[shard].SetSpan(slot, sp)
	}
	return slot, err
}

func (c *conn) leave(shard, slot int, sp *obs.Span) {
	if sp != nil {
		c.srv.view.doms[shard].SetSpan(slot, nil)
	}
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

// servePoint is GET, SET and DEL: a clean request joins pend, which runs
// when the burst ends, another verb arrives or MaxBatch requests wait; a
// malformed one runs what is pending first, so its ERR line keeps its
// place.
func (c *conn) servePoint(v *verb, args []byte) bool {
	key, we := c.srv.parseKey(args)
	if we.code != wireOK {
		if !c.flushPend() {
			return false
		}
		c.last = 0 // the rejection finishes no span: see serveLine
		return c.reject("", we)
	}
	c.pend = append(c.pend, sets.Op{Kind: v.kind, Key: key})
	return len(c.pend) < c.srv.maxBatch || c.flushPend()
}

// serveOne runs a lone point request under its own span, timed into its
// verb's histogram. A traced one reads the clock once, after its 2-byte
// reply is rendered: it has no write phase of its own (the render is in its
// lease remainder), and its service time is end − start − wait.
func (c *conn) serveOne(op sets.Op) bool {
	s, v := c.srv, &verbs[op.Kind]
	shard := ShardOf(op.Key, len(s.shards))
	sp := c.begin(v.name, op.Key)
	slot, err := c.enter(shard, sp)
	if err != nil {
		// The span still finishes: a shed request is a tail-latency event
		// too (all wait, no work), and the slowlog should show it.
		t0 := stamp(sp)
		keep := c.shed("", err)
		c.finish(sp, t0)
		return keep
	}
	ok := sets.Do(s.shards[shard].Set, slot, op)
	if d := keyDelta[op.Kind]; ok && d != 0 {
		s.keys.Add(d)
	}
	c.leave(shard, slot, sp)
	c.writeBit(ok)
	if sp != nil {
		c.seal(sp, obs.Now())
		if c.sampled() {
			v.hist(s.probe).RecordAt(c.id, sp.TotalNs()-sp.Phase(obs.SpanWait))
		}
	}
	return true
}

// parseOp parses one MULTI body line: a point verb and its key.
func (s *Server) parseOp(line []byte) (sets.Op, wireErr) {
	name, args := cutSpace(line)
	v := lookupVerb(name)
	if !v.point {
		return sets.Op{}, wireErr{code: errNotKeyOp}
	}
	key, we := s.parseKey(args)
	return sets.Op{Kind: v.kind, Key: key}, we
}

// drain consumes k body lines of a rejected frame through the reused line
// scanner, so the connection stays in frame; false when the stream ends
// first.
func (c *conn) drain(k int) bool {
	for ; k > 0; k-- {
		if line, err := c.sc.Line(); err != nil && len(line) == 0 {
			return false
		}
	}
	return true
}

// serveMulti reads and executes one MULTI frame: countArg body lines, each
// a GET/SET/DEL request, run as one batch transaction per shard touched.
// Any rejection is a single ERR line (rendered before the drain reads on:
// a diagnosis may alias the line it is about) and executes nothing. To keep
// the connection usable after a rejection the body must still be consumed:
// a parse failure drains the remaining body lines, and an oversized count
// is drained only up to maxBatch×oversizeDrainFactor lines (beyond that
// the connection drops rather than stream unbounded garbage). A malformed
// count is not drained at all: the client did not follow the grammar, so
// there is no body to be in frame with.
func (c *conn) serveMulti(_ *verb, countArg []byte) bool {
	s := c.srv
	n, we := parseCount(countArg)
	if we.code != wireOK {
		return c.reject("multi: ", we)
	}
	if n > s.maxBatch {
		c.reject("multi: ", wireErr{code: errOversize, key: uint64(n)})
		return n <= s.maxBatch*oversizeDrainFactor && c.drain(n)
	}
	c.ops = c.ops[:0]
	for i := 0; i < n; i++ {
		line, err := c.sc.Line()
		if err != nil && len(line) == 0 {
			return false
		}
		op, we := s.parseOp(line)
		if we.code != wireOK {
			we.op = int32(i) + 1
			c.reject("multi: ", we)
			return c.drain(n - 1 - i)
		}
		c.ops = append(c.ops, op)
	}
	return c.execOps(c.ops)
}

// execOps runs a MULTI frame's ops and writes one 1/0 reply line per op,
// in op order. Ops group by shard (order preserved within a shard) and each
// shard's sub-batch executes through Set.Apply as one transaction, never
// split: the client asked for atomicity, so an over-capacity frame takes
// the serial fallback instead — that cliff is the measurement, not a
// failure.
//
// A lease failure stops execution at that shard: the shards before it, in
// the plan's ascending order, keep their effects (atomicity is per-shard)
// and the rest never run. The refused frame answers a single ERR line with
// no body replies, matching serveMulti's rejections, under the shedding
// contract.
func (c *conn) execOps(ops []sets.Op) bool {
	s := c.srv
	sp := c.begin("MULTI", 0)
	sampled, t0 := c.spanKeys(sp, ops)
	results := c.resultsFor(ops)
	splitByShard(&c.plan, ops, len(s.shards))
	var leaseErr error
	for sh, sub := range c.plan.ops {
		if len(sub) == 0 {
			continue
		}
		slot, err := c.enter(sh, sp)
		if err != nil {
			leaseErr = err
			break
		}
		if sampled {
			s.probe.BatchOp.RecordAt(c.id, uint64(len(sub)))
		}
		for i, r := range s.shards[sh].Set.Apply(slot, sub) {
			results[c.plan.idx[sh][i]] = r
			c.count(sub[i], r)
		}
		c.leave(sh, slot, sp)
	}
	w0 := c.executed(sp, sampled, t0)
	keep := true
	if leaseErr != nil {
		keep = c.shed("multi: ", leaseErr)
	} else {
		for _, r := range results {
			c.writeBit(r)
		}
	}
	c.finish(sp, w0)
	return keep
}

// servePass runs a burst's pending point requests, two or more, and writes
// each its reply, in request order, under one BATCH span. Each shard
// touched runs its requests as one hand-over-hand pass (passOn): every
// request linearizes on its own, as it would alone, but the shard's chain
// is walked once for all of them. A shard whose lease is refused answers
// each of its requests with the ERR line that request would get alone, and
// the other shards still run; a refusal other than saturation drops the
// connection after its first ERR line.
func (c *conn) servePass(ops []sets.Op) bool {
	s := c.srv
	sp := c.begin("BATCH", 0)
	sampled, t0 := c.spanKeys(sp, ops)
	results := c.resultsFor(ops)
	splitByShard(&c.plan, ops, len(s.shards))
	for sh, sub := range c.plan.ops {
		c.refused[sh] = c.passOn(sh, sub, results, c.plan.idx[sh], sp)
	}
	w0 := c.executed(sp, sampled, t0)
	keep := true
	for i, r := range results {
		if err := c.refused[ShardOf(ops[i].Key, len(s.shards))]; err != nil {
			if keep = c.shed("", err); !keep {
				break
			}
			continue
		}
		c.writeBit(r)
	}
	c.finish(sp, w0)
	return keep
}

// passOn runs ops, every one routed to shard sh, as one pass under a lease
// on it (Sharded.passShard: op j's result to out[idx[j]]) and books what
// they did to the key count. It returns the lease's refusal, having run
// nothing, if there was one.
func (c *conn) passOn(sh int, ops []sets.Op, out []sets.Result, idx []int, sp *obs.Span) error {
	if len(ops) == 0 {
		return nil
	}
	slot, err := c.enter(sh, sp)
	if err != nil {
		return err
	}
	c.srv.view.passShard(sh, slot, ops, out, idx)
	for j, op := range ops {
		c.count(op, out[idx[j]])
	}
	c.leave(sh, slot, sp)
	return nil
}

// spanKeys opens a many-op request: the span carries every op's key, and
// the sampling decision and the execution's start stamp are taken.
func (c *conn) spanKeys(sp *obs.Span, ops []sets.Op) (sampled bool, t0 int64) {
	if sp != nil {
		for _, op := range ops {
			sp.AddKey(op.Key)
		}
	}
	return c.sampled(), stamp(sp)
}

// resultsFor returns the connection's result buffer sized for ops.
func (c *conn) resultsFor(ops []sets.Op) []sets.Result {
	if cap(c.results) < len(ops) {
		c.results = make([]sets.Result, len(ops))
	}
	return c.results[:len(ops)]
}

// count books what op's result r did to the key count.
func (c *conn) count(op sets.Op, r sets.Result) {
	if d := keyDelta[op.Kind]; r && d != 0 {
		c.srv.keys.Add(d)
	}
}

// executed stamps the end of a many-op request's execution, which is the
// start of its write phase, and times the execution into BatchNs.
func (c *conn) executed(sp *obs.Span, sampled bool, t0 int64) (w0 int64) {
	w0 = stamp(sp)
	if sampled {
		c.srv.probe.BatchNs.RecordAt(c.id, uint64(w0-t0))
	}
	return w0
}

// serveAscend executes one ASCEND <lo> <n> request: stream up to n keys
// ≥ lo as "OK <k>" lines, terminated by END. It is the streaming merge
// bounded at n, with a pull that enters the shard's bracket around each
// sub-scan, so cursor commits and renavigations stamp the span's tx phases
// and no cursor position is ever held across a lease (see pullSize). A lease
// failure mid-stream terminates the scan with an ERR line — the scan's
// alternate terminator — under the shedding contract.
func (c *conn) serveAscend(_ *verb, args []byte) bool {
	s := c.srv
	loArg, nArg := cutSpace(args)
	if nArg == nil {
		return c.reject("ascend: want ASCEND <lo> <n>", wireErr{})
	}
	lo, we := s.parseKey(loArg)
	if we.code != wireOK {
		return c.reject("ascend: ", we)
	}
	n, we := parseCount(nArg)
	if we.code != wireOK {
		return c.reject("ascend: ", we)
	}
	if !s.view.CanAscend() {
		return c.reject("scan unsupported", wireErr{})
	}
	sp := c.begin("ASCEND", lo)
	t0 := stamp(sp)
	for i := range c.cursors {
		c.cursors[i].reset(lo)
	}
	pulled := 0
	err := mergeAscend(c.cursors, n, func(i int, cur *shardCursor, max int) error {
		slot, err := c.enter(i, sp)
		if err != nil {
			return err
		}
		err = cur.pull(s.view.asc[i], slot, max)
		c.leave(i, slot, sp)
		pulled += len(cur.buf)
		return err
	}, func(key uint64) bool {
		c.scratch = strconv.AppendUint(append(c.scratch[:0], "OK "...), key, 10)
		c.scratch = append(c.scratch, '\n')
		c.bw.Write(c.scratch)
		return true
	})
	w0 := stamp(sp)
	keep := true
	switch {
	case err == nil:
		c.bw.WriteString("END\n")
	default:
		keep = c.shed("ascend: ", err)
	}
	if end := c.finish(sp, w0); err == nil && c.sampled() {
		s.probe.AscendNs.RecordAt(c.id, uint64(end-t0))
		s.probe.Pulled().RecordAt(c.id, uint64(pulled))
	}
	return keep
}

// serveSlowlog answers SLOWLOG <n>: up to n SLOW lines, slowest first,
// terminated by END (the ASCEND framing, so one-shot clients reuse the
// same reader). Each line is the wire rendering of one slowlog entry —
// total, phase breakdown, attempt/abort counts, keys, shards and abort
// owners as key=value fields, appended into the connection's one scratch
// buffer. Servers running without an obs domain have no slowlog and answer
// a single ERR line.
func (c *conn) serveSlowlog(_ *verb, countArg []byte) bool {
	n, we := parseCount(countArg)
	if we.code != wireOK {
		return c.reject("slowlog: ", we)
	}
	if c.srv.slow == nil {
		return c.reject("slowlog unavailable (server has no obs domain)", wireErr{})
	}
	for rank, e := range c.srv.slow.Entries(n) {
		b := appendField(c.scratch[:0], "SLOW rank=", uint64(rank+1))
		b = append(append(b, " verb="...), e.Verb...)
		b = appendField(b, " total_ns=", e.TotalNs)
		b = append(append(b, " worst="...), e.WorstPhase...)
		b = appendField(b, " wait_ns=", e.WaitNs)
		b = appendField(b, " lease_ns=", e.LeaseNs)
		b = appendField(b, " attempts_ns=", e.AttemptsNs)
		b = appendField(b, " serial_ns=", e.SerialNs)
		b = appendField(b, " reclaim_ns=", e.ReclaimNs)
		b = appendField(b, " write_ns=", e.WriteNs)
		b = appendField(b, " attempts=", uint64(e.Attempts))
		b = appendField(b, " serial_txs=", uint64(e.SerialTxs))
		b = appendList(append(b, " keys="...), e.Keys)
		b = appendField(b, " key_n=", uint64(e.KeyN))
		b = appendList(append(b, " shards="...), e.Shards)
		b = appendList(append(b, " owners="...), e.Owners)
		c.scratch = append(b, '\n')
		c.bw.Write(c.scratch)
	}
	c.bw.WriteString("END\n")
	return true
}

func appendField(dst []byte, name string, v uint64) []byte {
	return strconv.AppendUint(append(dst, name...), v, 10)
}

// appendList renders a list as comma-separated decimals ("-" when empty,
// so the SLOW line's field count is stable for text tooling).
func appendList[T uint64 | int | int32](dst []byte, v []T) []byte {
	if len(v) == 0 {
		return append(dst, '-')
	}
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		if x < 0 {
			dst = strconv.AppendInt(dst, int64(x), 10)
		} else {
			dst = strconv.AppendUint(dst, uint64(x), 10)
		}
	}
	return dst
}

func (c *conn) serveLen(*verb, []byte) bool {
	c.scratch = append(strconv.AppendInt(c.scratch[:0], c.srv.keys.Load(), 10), '\n')
	c.bw.Write(c.scratch)
	return true
}

// serveInfo is the cold aggregate view (monitors poll it a few times a
// second), read off the server's Sharded view of its own backends; fmt is
// fine here and keeps the field list readable.
func (c *conn) serveInfo(*verb, []byte) bool {
	s := c.srv
	multi, scan := "atomic", "atomic-window"
	if len(s.shards) > 1 {
		multi, scan = "per-shard", "merged"
	}
	if !s.view.CanAscend() {
		scan = "none"
	}
	tm := s.view.TMStats()
	fmt.Fprintf(c.bw, "variant=%s shards=%d slots=%d keys=%d live=%d deferred=%d conns=%d maxbatch=%d multi=%s scan=%s commits=%d ro_commits=%d rw_commits=%d serial=%d aborts=%d",
		s.shards[0].Set.Name(), len(s.shards), s.shards[0].Pool.Slots(),
		s.keys.Load(), s.view.LiveNodes(), s.view.DeferredNodes(), s.conns.Load(),
		s.maxBatch, multi, scan, tm.Commits, tm.ReadOnlyCommits(), tm.WriteCommits, tm.SerialCommits, tm.TotalAborts())
	if s.obsAddr != "" {
		fmt.Fprintf(c.bw, " obs=%s", s.obsAddr)
	}
	c.bw.WriteByte('\n')
	return true
}
