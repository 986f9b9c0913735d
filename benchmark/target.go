package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"hohtx/internal/serve"
	"hohtx/internal/sets"
)

// burst is one closed-loop step of a connection: its requests go out
// together and the replies come back in order. Replies land in res (one
// per point operation) and scanKeys (the keys of every ASCEND, delimited
// by scanEnd); errs marks operations answered ERR or unparsably.
type burst struct {
	ops      []op
	per      int // operations per request: the MULTI frame size, else 1
	res      []bool
	scanKeys []uint64
	scanEnd  []int
	errs     []bool
	traced   bool    // a sampled burst: non-wire targets get stamped too
	sent     int64   // monotonic ns when the burst was flushed
	done     []int64 // per request: monotonic ns when its reply was parsed
}

func (b *burst) reset(n, per int) {
	if cap(b.ops) < n {
		b.ops = make([]op, n)
		b.res = make([]bool, n)
		b.scanEnd = make([]int, n)
		b.errs = make([]bool, n)
		b.done = make([]int64, n)
	}
	b.ops, b.res, b.scanEnd, b.errs = b.ops[:n], b.res[:n], b.scanEnd[:n], b.errs[:n]
	clear(b.errs)
	b.per = per
	b.done = b.done[:n/per]
	b.scanKeys = b.scanKeys[:0]
}

// epoch anchors the monotonic timestamps spans and latencies are made of.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// target is where a burst executes: a rung of the layer ladder.
type target interface {
	do(b *burst) error
	close()
}

// wireTarget speaks the server's line protocol over a net.Conn — loopback
// TCP for the end-to-end runs, the in-memory listener for ladder rung (c).
type wireTarget struct {
	nc      net.Conn
	sc      *serve.LineScanner
	out     []byte
	scanLen int
}

func newWireTarget(nc net.Conn, scanLen int) *wireTarget {
	return &wireTarget{nc: nc, sc: serve.NewLineScanner(bufio.NewReaderSize(nc, 64<<10)), scanLen: scanLen}
}

func (t *wireTarget) close() { _ = t.nc.Close() }

func (t *wireTarget) do(b *burst) error {
	t.out = appendRequests(t.out[:0], b.ops, b.per, t.scanLen)
	b.sent = nowNs()
	if _, err := t.nc.Write(t.out); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	for r := range b.done {
		for i := r * b.per; i < (r+1)*b.per; i++ {
			if err := t.readReply(b, i); err != nil {
				return err
			}
		}
		b.done[r] = nowNs()
	}
	return nil
}

// readReply reads operation i's reply. A MULTI frame the server rejects
// answers one ERR line for the whole frame; the benchmark's workloads are
// sized so that never happens, and if it does the frame's remaining reads
// time out and fail the run, which is the right outcome.
func (t *wireTarget) readReply(b *burst, i int) error {
	if b.ops[i].kind == opScan {
		for {
			line, err := t.sc.Line()
			if err != nil {
				return fmt.Errorf("read: %w", err)
			}
			if string(line) == "END" {
				break
			}
			k, ok := parseOK(line)
			if !ok { // ERR is the scan's alternate terminator
				b.errs[i] = true
				break
			}
			b.scanKeys = append(b.scanKeys, k)
		}
		b.scanEnd[i] = len(b.scanKeys)
		return nil
	}
	line, err := t.sc.Line()
	if err != nil {
		return fmt.Errorf("read: %w", err)
	}
	switch string(line) {
	case "1":
		b.res[i] = true
	case "0":
		b.res[i] = false
	default:
		b.errs[i] = true
	}
	return nil
}

// parseUint parses a decimal reply field.
func parseUint(b []byte) (uint64, bool) {
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, len(b) > 0
}

// parseOK parses an ASCEND reply line "OK <key>".
func parseOK(line []byte) (uint64, bool) {
	if len(line) < 4 || string(line[:3]) != "OK " {
		return 0, false
	}
	return parseUint(line[3:])
}

// length asks the server for LEN.
func (t *wireTarget) length() (int, error) {
	if _, err := t.nc.Write([]byte("LEN\n")); err != nil {
		return 0, err
	}
	line, err := t.sc.Line()
	if err != nil {
		return 0, err
	}
	n, ok := parseUint(line)
	if !ok {
		return 0, fmt.Errorf("LEN answered %q", line)
	}
	return int(n), nil
}

// kindTimes accumulates sampled per-kind costs on ladder rung (a).
type kindTimes struct {
	ns    [numKinds]int64
	n     [numKinds]int64
	apply struct{ ns, ops int64 }
	scan  struct{ ns, keys int64 }
	tick  int
}

// setTarget calls the structures directly: rung (a) with fixed worker ids,
// and — wrapped by poolTarget — rung (b) with leased ones. It routes by
// serve.ShardOf and merges per-shard cursors exactly as the server does,
// only without a lease, a codec or a socket in between.
type setTarget struct {
	sh      *serve.Sharded
	tids    []int // worker id per shard
	scanLen int
	batch   []sets.Op
	cursor  [][]uint64 // per shard: keys pulled for the scan being merged
	heads   []int      // per shard: merge position in cursor
	times   *kindTimes // non-nil: time one operation in 16
}

func newSetTarget(sh *serve.Sharded, tid, scanLen int) *setTarget {
	n := sh.ShardCount()
	t := &setTarget{sh: sh, tids: make([]int, n), scanLen: scanLen,
		cursor: make([][]uint64, n), heads: make([]int, n)}
	for i := range t.tids {
		t.tids[i] = tid
	}
	return t
}

func (t *setTarget) close() {}

func (t *setTarget) do(b *burst) error {
	if b.per > 1 {
		return t.doFrames(b)
	}
	from := 0 // where the current scan's keys start in b.scanKeys
	for i, o := range b.ops {
		timed := false
		var t0 int64
		if t.times != nil {
			if t.times.tick++; t.times.tick&15 == 0 {
				timed, t0 = true, nowNs()
			}
		}
		if o.kind == opScan {
			from = len(b.scanKeys)
			if err := t.ascend(b, o.key); err != nil {
				return err
			}
			b.scanEnd[i] = len(b.scanKeys)
		} else {
			s := t.sh.ShardFor(o.key)
			set, tid := t.sh.Shard(s), t.tids[s]
			switch o.kind {
			case opGet:
				b.res[i] = set.Lookup(tid, o.key)
			case opSet:
				b.res[i] = set.Insert(tid, o.key)
			default:
				b.res[i] = set.Remove(tid, o.key)
			}
		}
		if timed {
			d := nowNs() - t0
			t.times.ns[o.kind] += d
			t.times.n[o.kind]++
			if o.kind == opScan {
				t.times.scan.ns += d
				t.times.scan.keys += int64(b.scanEnd[i] - from)
			}
		}
	}
	return nil
}

// doFrames runs each MULTI frame as one Set.Apply, the server's execOps on
// a single shard.
func (t *setTarget) doFrames(b *burst) error {
	if t.sh.ShardCount() != 1 {
		return errors.New("MULTI workloads are single-shard")
	}
	set, tid := t.sh.Shard(0), t.tids[0]
	for f := 0; f < len(b.ops); f += b.per {
		t.batch = t.batch[:0]
		for _, o := range b.ops[f : f+b.per] {
			kind := sets.OpLookup
			switch o.kind {
			case opSet:
				kind = sets.OpInsert
			case opDel:
				kind = sets.OpRemove
			}
			t.batch = append(t.batch, sets.Op{Kind: kind, Key: o.key})
		}
		var t0 int64
		if t.times != nil {
			t0 = nowNs()
		}
		copy(b.res[f:f+b.per], set.Apply(tid, t.batch))
		if t.times != nil {
			t.times.apply.ns += nowNs() - t0
			t.times.apply.ops += int64(b.per)
		}
	}
	return nil
}

// ascend delivers up to scanLen keys ≥ lo into b.scanKeys. Every shard's
// cursor is pulled once for scanLen keys (each pull a complete sub-scan,
// as in serve's shardCursor) and the pulls are merged; scanLen is also the
// server's per-pull chunk, so no second pull can be needed.
func (t *setTarget) ascend(b *burst, lo uint64) error {
	for s := range t.cursor {
		a, ok := t.sh.Shard(s).(sets.Ascender)
		if !ok {
			return sets.ErrScanUnsupported
		}
		buf := t.cursor[s][:0]
		err := a.Ascend(t.tids[s], lo, func(k uint64) bool {
			buf = append(buf, k)
			return len(buf) < t.scanLen
		})
		if err != nil {
			return err
		}
		t.cursor[s] = buf
	}
	if len(t.cursor) == 1 {
		b.scanKeys = append(b.scanKeys, t.cursor[0]...)
		return nil
	}
	heads := t.heads
	for s := range heads {
		heads[s] = 0
	}
	for n := 0; n < t.scanLen; n++ {
		best := -1
		for s, buf := range t.cursor {
			if heads[s] < len(buf) && (best < 0 || buf[heads[s]] < t.cursor[best][heads[best]]) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		b.scanKeys = append(b.scanKeys, t.cursor[best][heads[best]])
		heads[best]++
	}
	return nil
}

// poolTarget is rung (b): the same structure calls, made while holding a
// worker slot leased from each shard's serve.Pool through an affinity
// handle. Like the server it leases once per burst, not per operation, and
// takes shards in ascending order so two callers cannot deadlock.
type poolTarget struct {
	set     *setTarget
	handles []*serve.Handle
	steps   []func(tid int)
	cur     *burst
	err     error
}

func newPoolTarget(sh *serve.Sharded, pools []*serve.Pool, scanLen int) *poolTarget {
	t := &poolTarget{set: newSetTarget(sh, 0, scanLen)}
	for _, p := range pools {
		t.handles = append(t.handles, p.Handle())
	}
	t.steps = make([]func(int), len(pools))
	for s := range t.steps {
		t.steps[s] = func(tid int) {
			t.set.tids[s] = tid
			var err error
			if s+1 < len(t.steps) {
				err = t.handles[s+1].Do(context.Background(), t.steps[s+1])
			} else {
				err = t.set.do(t.cur)
			}
			if err != nil {
				t.err = err
			}
		}
	}
	return t
}

func (t *poolTarget) close() {}

func (t *poolTarget) do(b *burst) error {
	t.cur, t.err = b, nil
	if err := t.handles[0].Do(context.Background(), t.steps[0]); err != nil {
		return err
	}
	return t.err
}
