package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The reference service. This host changes speed by itself, in phases of
// seconds to tens of minutes and by a third or more (README.md, "What the
// host allows"), so a raw time says as much about the neighbours as about
// the code. Every timed reading is therefore taken beside a reference that
// never changes: the dumbest server of the same shape — one goroutine per
// connection over loopback TCP, each answering a fixed-size request by
// walking a private ring of list nodes in transaction-sized windows —
// driven by the same callers in slices interleaved with the work being
// timed. A reading is then scaled by what the reference read next to it,
// relative to what the reference reads on this host in its usual phase
// (workload.refLatUs, workload.refCPUUs): a time or a rate by the
// reference's median request latency, CPU per operation by the reference's
// CPU per request. The two do not move together: a virtual CPU that is
// taken away costs wall time but no CPU time. The median, not the request
// rate: the rate also counts the odd long stall and the cold start of every
// slice, which do not follow the host's speed; scaled by the rate, two
// identical sets of scan-sharded runs differed by 12 %, by the median 4 %.
//
// For the scaling to cancel the host, the reference has to slow down as
// much as the workload does when the host does, so it is shaped like the
// workload: as many nodes as the structure holds, as large a share of a
// request spent walking as the workload spends in the structure
// (workload.refWalk), and per hop the bookkeeping of a software
// transaction — a version check and a read-log entry per load, a
// validation pass and a bump of a clock all connections share per window —
// plus a few rounds of independent register arithmetic. What a busy sibling
// hyperthread takes from code that keeps the execution ports full is not
// what it takes from a bare pointer chase: measured beside point-large
// while the host was restless, the bare chase followed the workload with
// correlation 0.70 over the slices of a run, this mix with 0.83.
//
// Nothing here may change when the code under test does: it uses the
// standard library only.

const (
	refMsg    = 96 // request and reply size in bytes, like a burst's
	refWindow = 16 // hops per window
	refOrecs  = 256
	refALU    = 8 // rounds of register arithmetic per hop
)

type refNode struct {
	key  uint64
	next int32
	_    [52]byte // one cache line per node
}

// refRing is a ring of list nodes laid out in shuffled order, so a walk is
// a chain of dependent loads the prefetcher cannot follow.
type refRing struct {
	nodes []refNode
	orecs [refOrecs]uint64 // version per stripe of nodes
	log   [refWindow]uint32
	clock *atomic.Uint64
}

func newRefRing(r *rng, n int, clock *atomic.Uint64) *refRing {
	l := &refRing{nodes: make([]refNode, n), clock: clock}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	for i := len(order) - 1; i > 0; i-- {
		j := r.below(uint64(i + 1))
		order[i], order[j] = order[j], order[i]
	}
	for rank, slot := range order {
		l.nodes[slot].key = uint64(rank)
		l.nodes[slot].next = order[(rank+1)%n]
	}
	return l
}

// walk follows the ring for hops nodes from slot from, a window at a time,
// and returns the sum of the keys it passed and a digest of the arithmetic
// done on the way.
func (l *refRing) walk(from int32, hops int) (sum, digest uint64) {
	n := from
	a, b, c, d := uint64(from)+1, uint64(from)+2, uint64(from)+3, uint64(from)+4
	for hops > 0 {
		start := l.clock.Load()
		w := min(hops, refWindow)
		for i := 0; i < w; i++ {
			o := uint32(n) * 0x9e3779b1 >> 24
			if l.orecs[o] > start {
				panic("reference: a version from the future")
			}
			l.log[i] = o
			node := &l.nodes[n]
			sum += node.key
			n = node.next
			for j := 0; j < refALU; j++ {
				a = a*0x9e3779b97f4a7c15 + 1
				b ^= b << 13
				c = bits.RotateLeft64(c, 7) + 0x632be59bd9b4e019
				d -= d >> 3
			}
		}
		for _, o := range l.log[:w] {
			if l.orecs[o] > start {
				panic("reference: a version from the future")
			}
		}
		l.orecs[l.log[0]] = start
		l.clock.Add(1)
		hops -= w
	}
	return sum, a ^ b ^ c ^ d
}

// refServer is the reference service: Accept, then per connection read a
// request, walk the connection's ring from where the request says, write a
// reply.
type refServer struct {
	ln    net.Listener
	rings [conns]*refRing // built before the first Accept, so that no run measures their allocation
	hops  int             // nodes walked per request
	clock atomic.Uint64
	done  chan struct{}
}

func startRefServer(w *workload) (*refServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &refServer{ln: ln, hops: w.refWalk, done: make(chan struct{})}
	r := newRNG(1)
	for c := range s.rings {
		s.rings[c] = newRefRing(&r, int(w.keys/2), &s.clock)
	}
	go s.accept()
	return s, nil
}

// accept serves one connection per ring, then waits for them to end.
func (s *refServer) accept() {
	defer close(s.done)
	var wg sync.WaitGroup
	defer wg.Wait()
	for _, ring := range s.rings {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveRef(nc, ring, s.hops)
		}()
	}
}

func serveRef(nc net.Conn, ring *refRing, hops int) {
	defer nc.Close()
	var msg [refMsg]byte
	for {
		if _, err := io.ReadFull(nc, msg[:]); err != nil {
			return
		}
		from := binary.LittleEndian.Uint32(msg[:]) % uint32(len(ring.nodes))
		sum, digest := ring.walk(int32(from), hops)
		binary.LittleEndian.PutUint64(msg[refMsg-8:], sum^digest)
		if _, err := nc.Write(msg[:]); err != nil {
			return
		}
	}
}

// close stops accepting and waits for every connection's goroutine; the
// callers close their ends first.
func (s *refServer) close() {
	_ = s.ln.Close()
	<-s.done
}

// refCaller is one closed-loop caller of the reference service.
type refCaller struct {
	nc  net.Conn
	rng rng
	msg [refMsg]byte
	lat hist // the current slice's request latencies
}

func dialRef(s *refServer, conn int) (*refCaller, error) {
	nc, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	return &refCaller{nc: nc, rng: newRNG(uint64(1000 + conn))}, nil
}

// request makes one round trip.
func (c *refCaller) request() error {
	binary.LittleEndian.PutUint64(c.msg[:], c.rng.next())
	if _, err := c.nc.Write(c.msg[:]); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if _, err := io.ReadFull(c.nc, c.msg[:]); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	return nil
}

// refSlice is what one caller's slice of the reference measured.
type refSlice struct {
	n   int     // requests made
	p50 float64 // their median latency, ns
}

// runUntil makes requests until the monotonic clock passes end.
func (c *refCaller) runUntil(end int64) (refSlice, error) {
	var s refSlice
	c.lat = hist{}
	for now := nowNs(); now < end; {
		if err := c.request(); err != nil {
			return s, err
		}
		sent := now
		now = nowNs()
		c.lat.record(uint64(now - sent))
		s.n++
	}
	s.p50 = c.lat.quantile(0.5)
	return s, nil
}

// reference is the service with one caller per benchmark connection.
type reference struct {
	srv     *refServer
	callers [conns]*refCaller
}

func openReference(w *workload) (*reference, error) {
	srv, err := startRefServer(w)
	if err != nil {
		return nil, err
	}
	r := &reference{srv: srv}
	for c := range r.callers {
		if r.callers[c], err = dialRef(srv, c); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *reference) close() {
	for _, c := range r.callers {
		if c != nil {
			_ = c.nc.Close()
		}
	}
	r.srv.close()
}

// latencyFor runs the reference from every caller for d and returns its
// median request latency in µs, averaged over the callers.
func (r *reference) latencyFor(d time.Duration) (float64, error) {
	var wg sync.WaitGroup
	var slices [conns]refSlice
	var errs [conns]error
	end := nowNs() + int64(d)
	for c, caller := range r.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slices[c], errs[c] = caller.runUntil(end)
		}()
	}
	wg.Wait()
	var us float64
	for _, s := range slices {
		us += s.p50 / 1e3 / conns
	}
	return us, errors.Join(errs[:]...)
}
