package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hohtx/internal/obs"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
)

// driver is one closed-loop caller: it draws bursts from its generator,
// executes them on its target, and checks every reply against its oracle.
type driver struct {
	w     *workload
	gen   *generator
	model *oracle
	tgt   target
	b     burst

	wire bool // tgt stamps b.sent and b.done itself

	attempted, failed uint64
	setOK             uint64     // SETs answered 1
	rec               *windowRec // non-nil while the measured window is open
	ref               *refCaller // end-to-end runs: this caller's connection to the reference service
	spans             *spanLog   // non-nil on traced ladder rungs
	lat               *hist      // ladder, wire rungs: request latencies
}

func newDriver(w *workload, seed uint64, conn int, tgt target) *driver {
	_, wire := tgt.(*wireTarget)
	return &driver{w: w, gen: newGenerator(w, seed, conn), model: newOracle(w, conn), tgt: tgt, wire: wire}
}

// exec runs the burst already laid out in d.b and checks it. It returns
// the number of operations answered correctly; an error means the
// connection is unusable.
func (d *driver) exec() (int, error) {
	n := len(d.b.ops)
	d.attempted += uint64(n)
	stamp := d.b.traced && !d.wire
	if stamp {
		d.b.sent = nowNs()
	}
	if err := d.tgt.do(&d.b); err != nil {
		d.failed += uint64(n)
		return 0, err
	}
	if stamp {
		d.b.done[len(d.b.done)-1] = nowNs()
	}
	bad, from := 0, 0
	for i, o := range d.b.ops {
		ok := false
		switch {
		case d.b.errs[i]: // answered ERR: not executed, so the model stays
			if o.kind == opScan {
				from = d.b.scanEnd[i]
			}
		case o.kind == opScan:
			ok = d.model.scan(o.key, d.b.scanKeys[from:d.b.scanEnd[i]])
			from = d.b.scanEnd[i]
		default:
			ok = d.model.point(o, d.b.res[i])
			if o.kind == opSet && d.b.res[i] {
				d.setOK++
			}
		}
		if !ok {
			bad++
		}
	}
	d.failed += uint64(bad)
	return n - bad, nil
}

// prefill inserts the connection's half of the initial key set, in
// seeded-shuffled order, as plain pipelined SETs.
func (d *driver) prefill() error {
	keys := d.gen.prefillKeys()
	for len(keys) > 0 {
		n := min(64, len(keys))
		d.b.reset(n, 1)
		for i, k := range keys[:n] {
			d.b.ops[i] = op{opSet, k}
		}
		if _, err := d.exec(); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		keys = keys[n:]
	}
	return nil
}

// step runs one workload burst.
func (d *driver) step() (int, error) {
	d.b.reset(d.w.opsPerBurst(), max(1, d.w.multi))
	d.gen.fill(d.b.ops)
	return d.exec()
}

// runBursts runs n workload bursts, the first of them the caller's
// first-th: a warm-up, or a tenth of a ladder rung. One burst in spanEvery
// records spans when the driver has a span log.
func (d *driver) runBursts(first, n int) error {
	for i := first; i < first+n; i++ {
		traced := d.spans != nil && i%spanEvery == 0
		var t0 int64
		if traced {
			t0 = nowNs()
		}
		d.b.traced = traced
		if _, err := d.step(); err != nil {
			return err
		}
		if traced {
			d.spans.burst(d, i, t0, nowNs())
		}
		if d.lat != nil {
			for _, t := range d.b.done {
				d.lat.record(uint64(t - d.b.sent))
			}
		}
	}
	return nil
}

// pairs is how many (work slice, reference slice) pairs the measured window
// is cut into. It is fixed: if a run must be shorter the slices shrink,
// never their number, so every median is over this many.
const pairs = 40

// windowRec is one connection's record of the measured window. Each pair is
// a slice of the workload (two thirds of the pair) and then a slice of the
// reference service (reference.go).
type windowRec struct {
	start, pair int64          // monotonic ns: window start, length of a pair
	ops         [pairs]uint64  // operations answered correctly
	workNs      [pairs]int64   // from the slice's first flush to its last reply
	p50         [pairs]float64 // median request latency of the slice, ns
	cpuS        [pairs]float64 // process CPU seconds over the work slice (connection 0 only)
	ref         [pairs]refSlice
	refCPUS     [pairs]float64 // process CPU seconds over the reference slice (connection 0 only)
	all         hist           // every request latency of the window
}

// runWindow runs the measured window. Every caller follows the same wall
// clock schedule, so they all work, and all call the reference, at the same
// time.
func (d *driver) runWindow() error {
	rec := d.rec
	var lat hist
	for p := 0; p < pairs; p++ {
		base := rec.start + int64(p)*rec.pair
		workEnd := base + rec.pair*2/3
		t0 := nowNs()
		var cpu0 float64
		if d.gen.conn == 0 {
			cpu0 = cpuSeconds()
		}
		for end := t0; end < workEnd; {
			ok, err := d.step()
			if err != nil {
				return err
			}
			rec.ops[p] += uint64(ok)
			for _, t := range d.b.done {
				lat.record(uint64(t - d.b.sent))
			}
			end = d.b.done[len(d.b.done)-1]
			rec.workNs[p] = end - t0
		}
		if d.gen.conn == 0 {
			cpu0, rec.cpuS[p] = cpuSeconds(), cpuSeconds()-cpu0
		}
		rec.p50[p] = lat.quantile(0.5)
		rec.all.merge(&lat)
		lat = hist{}
		var err error
		if rec.ref[p], err = d.ref.runUntil(base + rec.pair); err != nil {
			return err
		}
		if d.gen.conn == 0 {
			rec.refCPUS[p] = cpuSeconds() - cpu0
		}
	}
	return nil
}

// session is a set of structures, optionally behind pools and a server,
// with one driver per caller.
type session struct {
	w       *workload
	sharded *serve.Sharded
	pools   []*serve.Pool // nil on ladder rung (a)
	st      *stack        // nil on ladder rungs (a) and (b)
	drivers [conns]*driver
}

// rung names a configuration of the layer ladder; rungTCP is also the
// end-to-end configuration.
type rung int

const (
	rungSets rung = iota // (a) sets.Set methods called directly
	rungPool             // (b) inside a serve.Pool lease
	rungMem              // (c) through serve.Server on an in-memory listener
	rungTCP              // (d) through serve.Server over loopback TCP
)

// openSession builds rung r of workload w with the given shard count and
// connects the callers. Nothing is prefilled yet.
func openSession(w *workload, seed uint64, r rung, shards int, observe bool) (*session, error) {
	s := &session{w: w}
	if r <= rungPool {
		threads := w.slots
		if r == rungSets {
			threads = conns
		}
		sharded, err := buildSets(w, threads, shards, observe)
		if err != nil {
			return nil, err
		}
		s.sharded = sharded
		if r == rungPool {
			s.pools = buildPools(w, sharded, obs.NewDomain(obs.DomainConfig{Name: "server", Threads: w.slots}))
		}
		for c := range s.drivers {
			var tgt target
			if r == rungPool {
				tgt = newPoolTarget(sharded, s.pools, w.scanLen)
			} else {
				sharded.Register(c)
				tgt = newSetTarget(sharded, c, w.scanLen)
			}
			s.drivers[c] = newDriver(w, seed, c, tgt)
		}
		return s, nil
	}
	var ln net.Listener
	var mem *memListener
	if r == rungMem {
		mem = newMemListener()
		ln = mem
	} else {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	st, err := startStack(w, shards, observe, ln)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	s.st, s.sharded, s.pools = st, st.sharded, st.pools
	for c := range s.drivers {
		var nc net.Conn
		if mem != nil {
			nc, err = mem.dial()
		} else {
			nc, err = net.Dial("tcp", ln.Addr().String())
		}
		if err != nil {
			_ = st.shutdown()
			return nil, err
		}
		s.drivers[c] = newDriver(w, seed, c, newWireTarget(nc, w.scanLen))
	}
	return s, nil
}

// each runs fn on every driver concurrently and joins their errors.
func (s *session) each(fn func(d *driver) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(s.drivers))
	for c, d := range s.drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = fn(d)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// deadline bounds the next phase: a reply that never comes fails the run
// instead of hanging it.
func (s *session) deadline(d time.Duration) {
	for _, dr := range s.drivers {
		if wt, ok := dr.tgt.(*wireTarget); ok {
			_ = wt.nc.SetDeadline(time.Now().Add(d))
		}
	}
}

// counts sums the drivers' attempted and failed operations.
func (s *session) counts() (attempted, failed uint64) {
	for _, d := range s.drivers {
		attempted += d.attempted
		failed += d.failed
	}
	return attempted, failed
}

// finish quiesces the session and checks its final state against the
// oracles: LEN (when there is a server) equals the models' total, the
// structures' Snapshot is exactly the union of the models, and a precise
// scheme (RR-V) holds nothing deferred. It returns one error per violated
// check; each also counts as a failed operation.
func (s *session) finish() []error {
	var errs []error
	want := 0
	for _, d := range s.drivers {
		want += d.model.count
	}
	if s.st != nil {
		if got, err := s.drivers[0].tgt.(*wireTarget).length(); err != nil {
			errs = append(errs, fmt.Errorf("LEN: %w", err))
		} else if got != want {
			errs = append(errs, fmt.Errorf("LEN = %d, oracles hold %d keys", got, want))
		}
	}
	for _, d := range s.drivers {
		d.tgt.close()
	}
	switch {
	case s.st != nil:
		if err := s.st.shutdown(); err != nil {
			errs = append(errs, fmt.Errorf("shutdown: %w", err))
		}
	case s.pools != nil:
		for _, p := range s.pools {
			p.Close()
		}
	default:
		for c := range s.drivers {
			s.sharded.Finish(c)
		}
	}
	var union []uint64
	for _, d := range s.drivers {
		for k, present := range d.model.present {
			if present {
				union = append(union, uint64(k))
			}
		}
	}
	if snap := s.sharded.Snapshot(); !sets.KeysEqual(snap, union) {
		errs = append(errs, fmt.Errorf("Snapshot holds %d keys, not the oracles' %d-key union", len(snap), len(union)))
	}
	if s.w.variant == "RR-V" {
		if n := s.sharded.DeferredNodes(); n != 0 {
			errs = append(errs, fmt.Errorf("RR-V left %d nodes deferred", n))
		}
	}
	s.drivers[0].failed += uint64(len(errs))
	return errs
}
