package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hohtx/internal/obs"
	"hohtx/internal/sets"
)

var (
	// ErrSaturated is returned by Acquire when every slot is leased and
	// the FIFO wait queue is at its configured bound. Callers should shed
	// load (a server replies "try later", a batch job backs off).
	ErrSaturated = errors.New("serve: lease pool saturated")
	// ErrClosed is returned by Acquire after Close.
	ErrClosed = errors.New("serve: lease pool closed")
	// ErrUnbalanced is wrapped by every failure of the verdict a drain ends
	// with (Sharded.Books, Server.Shutdown).
	ErrUnbalanced = errors.New("serve: books do not balance at drain")
)

// PoolConfig parameterizes NewPool.
type PoolConfig struct {
	// Slots is the number of worker ids the pool leases out; it must
	// equal the Threads the underlying set was configured with. Zero
	// defaults to 8, matching the zero hohtx.Config.
	Slots int
	// MaxWaiters bounds the FIFO wait queue: with every slot leased, up
	// to MaxWaiters Acquires queue and any further Acquire fails
	// immediately with ErrSaturated. Zero picks a default (16×Slots, at
	// least 64); negative means unbounded.
	MaxWaiters int
	// Obs, when non-nil, receives the pool's lease-wait histogram
	// (obs.HistLeaseWaitNs) and backpressure gauges.
	Obs *obs.Domain
}

// PoolStats is a point-in-time snapshot of the pool's counters — the
// backpressure story of a run: how often callers had to wait, for how
// long, and how often the bounded queue pushed back.
type PoolStats struct {
	Leases       uint64 // granted leases
	Waits        uint64 // leases that had to queue first
	WaitNs       uint64 // total queued time across granted leases
	AffinityHits uint64 // leases granted the handle's previous slot
	Cancels      uint64 // waiters abandoned by context cancellation
	Rejections   uint64 // Acquires refused with ErrSaturated
	PeakWaiters  uint64 // wait-queue depth high-water mark
	Outstanding  int    // currently leased slots
	Waiting      int    // currently queued waiters
}

// waiter is one queued Acquire. The channel is buffered so the granter
// never blocks; canceled is written under the pool mutex, so grant and
// cancellation cannot race.
type waiter struct {
	ch       chan int
	enqueued int64 // obs.Now() stamp
	canceled bool
}

// Pool multiplexes any number of goroutines onto the fixed worker ids of
// one set. All slots are registered with the set at construction; Close
// flushes them (set.Finish) once every lease has been returned.
//
// The pool is deliberately a mutex-guarded structure, not a lock-free
// one: a lease straddles a network round-trip or an operation batch, so
// the microseconds the critical sections cost are noise — and the mutex
// keeps grant, cancellation and close free of ABA subtleties.
type Pool struct {
	set        sets.Set
	slots      int
	maxWaiters int
	waitHist   *obs.Histogram // nil when unobserved

	mu     sync.Mutex
	idle   chan struct{} // closed once the pool is closed with no lease out
	free   []int         // LIFO stack of free slot ids (warm reuse)
	isFree []bool
	queue  []*waiter
	closed bool
	stats  PoolStats
	swept  sync.Once // the one Finish sweep closing owes
}

// NewPool builds a pool over set. cfg.Slots must equal the set's
// configured thread count; every slot is registered here, so callers
// never touch Register/Finish themselves.
func NewPool(set sets.Set, cfg PoolConfig) *Pool {
	if cfg.Slots <= 0 {
		cfg.Slots = 8
	}
	if cfg.MaxWaiters == 0 {
		cfg.MaxWaiters = 16 * cfg.Slots
		if cfg.MaxWaiters < 64 {
			cfg.MaxWaiters = 64
		}
	}
	p := &Pool{
		set:        set,
		slots:      cfg.Slots,
		maxWaiters: cfg.MaxWaiters,
		free:       make([]int, 0, cfg.Slots),
		isFree:     make([]bool, cfg.Slots),
		idle:       make(chan struct{}),
	}
	for s := cfg.Slots - 1; s >= 0; s-- { // slot 0 on top of the stack
		set.Register(s)
		p.free = append(p.free, s)
		p.isFree[s] = true
	}
	if cfg.Obs != nil {
		p.waitHist = cfg.Obs.Hist(obs.HistLeaseWaitNs, "ns")
		cfg.Obs.Gauge("lease_outstanding", func() uint64 { return uint64(p.Stats().Outstanding) })
		cfg.Obs.Gauge("lease_waiting", func() uint64 { return uint64(p.Stats().Waiting) })
		cfg.Obs.Gauge("lease_rejections", func() uint64 { return p.Stats().Rejections })
	}
	return p
}

// Slots returns the number of worker ids the pool leases.
func (p *Pool) Slots() int { return p.slots }

// Acquire leases a slot, queueing FIFO behind other waiters when all
// slots are out. It fails with ErrSaturated when the wait queue is full,
// ErrClosed after Close, or ctx.Err() if ctx ends first.
func (p *Pool) Acquire(ctx context.Context) (int, error) { return p.acquire(ctx, -1, nil) }

// TryAcquire leases a slot only when one is free right now; it never
// queues. The false return means "would have to wait" (or the pool is
// closed — a following Acquire reports which). Multi-pool callers use it
// to keep a fast path that cannot participate in a lease cycle: try every
// pool you like while holding leases, but drop them all before blocking.
func (p *Pool) TryAcquire() (int, bool) { return p.tryAcquire(-1) }

// Release returns a leased slot. The slot goes to the oldest waiter if
// any, otherwise back on the free stack.
func (p *Pool) Release(slot int) {
	p.mu.Lock()
	p.stats.Outstanding--
	for len(p.queue) > 0 {
		w := p.queue[0]
		p.queue = p.queue[1:]
		p.stats.Waiting--
		if w.canceled {
			continue
		}
		d := uint64(obs.Now() - w.enqueued)
		p.stats.WaitNs += d
		p.stats.Leases++
		p.stats.Outstanding++
		if p.waitHist != nil {
			p.waitHist.RecordAt(uint64(slot), d)
		}
		w.ch <- slot // buffered: never blocks
		p.mu.Unlock()
		return
	}
	p.free = append(p.free, slot)
	p.isFree[slot] = true
	if p.closed && p.stats.Outstanding == 0 {
		close(p.idle)
	}
	p.mu.Unlock()
}

// tryAcquire implements TryAcquire; want ≥ 0 prefers a specific slot.
func (p *Pool) tryAcquire(want int) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.free) == 0 {
		return -1, false
	}
	return p.grantLocked(want), true
}

// acquire implements Acquire; want ≥ 0 asks for a specific free slot
// (handle affinity) and falls back to any free slot. A nil ctx means
// "wait forever" — it only matters on the queued path, and Do(nil, fn)
// is too convenient a call shape to let it panic there. A non-nil sp gets
// the queued time stamped as its Wait phase — measured waiter-side (time
// since enqueue, taken after the grant lands) so it agrees with what the
// lease_wait_ns histogram's granter-side measurement saw to within a
// scheduling quantum; the fast path's wait is genuinely zero and stamps
// nothing.
func (p *Pool) acquire(ctx context.Context, want int, sp *obs.Span) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return -1, ErrClosed
	}
	if len(p.free) > 0 {
		slot := p.grantLocked(want)
		p.mu.Unlock()
		return slot, nil
	}
	if p.maxWaiters > 0 && len(p.queue) >= p.maxWaiters {
		p.stats.Rejections++
		p.mu.Unlock()
		return -1, ErrSaturated
	}
	w := &waiter{ch: make(chan int, 1), enqueued: obs.Now()}
	p.queue = append(p.queue, w)
	p.stats.Waits++
	p.stats.Waiting++
	if uint64(len(p.queue)) > p.stats.PeakWaiters {
		p.stats.PeakWaiters = uint64(len(p.queue))
	}
	p.mu.Unlock()

	select {
	case slot, ok := <-w.ch:
		if !ok {
			return -1, ErrClosed
		}
		if sp != nil {
			sp.Add(obs.SpanWait, uint64(obs.Now()-w.enqueued))
		}
		return slot, nil
	case <-ctx.Done():
		p.mu.Lock()
		select {
		case slot, ok := <-w.ch:
			// Lost the race: a release (or Close) resolved the waiter
			// before the cancellation took hold. Hand the slot straight
			// back rather than keeping a lease the caller will never use.
			p.mu.Unlock()
			if ok {
				p.Release(slot)
			}
		default:
			w.canceled = true
			p.stats.Cancels++
			p.stats.Waiting--
			p.mu.Unlock()
		}
		return -1, ctx.Err()
	}
}

// grantLocked pops a free slot, honoring a specific request when that
// slot is free, and books the lease as granted without a wait.
func (p *Pool) grantLocked(want int) int {
	i := len(p.free) - 1
	if want >= 0 && want < p.slots && p.isFree[want] {
		for p.free[i] != want {
			i--
		}
		p.stats.AffinityHits++
	}
	slot := p.free[i]
	p.free = append(p.free[:i], p.free[i+1:]...)
	p.isFree[slot] = false
	p.stats.Leases++
	p.stats.Outstanding++
	if p.waitHist != nil {
		p.waitHist.RecordAt(uint64(slot), 0)
	}
	return slot
}

// Do leases a slot for the duration of fn — the one-liner most callers
// want.
func (p *Pool) Do(ctx context.Context, fn func(tid int)) error {
	slot, err := p.Acquire(ctx)
	if err != nil {
		return err
	}
	defer p.Release(slot)
	fn(slot)
	return nil
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// FinishAll flushes every slot's deferred reclamation (set.Finish). The
// caller must be quiesced: no leases outstanding, no Acquires in flight.
// Deferred schemes may need two rounds to drain fully (a slot's retirees
// can be pinned by hazards that a later slot's Finish clears); precise
// schemes need none — Finish is a no-op for them, which is the point.
func (p *Pool) FinishAll() {
	for s := 0; s < p.slots; s++ {
		p.set.Finish(s)
	}
}

// Close rejects new Acquires, fails queued waiters with ErrClosed, waits
// for outstanding leases to be released, then flushes every slot.
func (p *Pool) Close() { _ = p.shut(context.Background()) }

// shut is Close with the wait bounded by ctx: when ctx ends first, it
// flushes nothing and names the worker ids still leased.
func (p *Pool) shut(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for _, w := range p.queue {
			if !w.canceled {
				close(w.ch)
			}
		}
		p.queue = nil
		p.stats.Waiting = 0
		if p.stats.Outstanding == 0 {
			close(p.idle)
		}
	}
	p.mu.Unlock()
	select {
	case <-p.idle:
	case <-ctx.Done():
	}
	var leased []error
	p.mu.Lock()
	for slot, free := range p.isFree {
		if !free {
			leased = append(leased, fmt.Errorf("worker %d still leased", slot))
		}
	}
	p.mu.Unlock()
	if len(leased) > 0 {
		return errors.Join(leased...)
	}
	p.swept.Do(p.FinishAll)
	return nil
}

// Handle is a pool client with slot affinity: Acquire prefers the slot
// this handle released last, so a long-lived client (one server
// connection, one worker goroutine) keeps hitting the same per-slot
// allocator magazines and reservation state. Handles are not safe for
// concurrent use; create one per goroutine.
type Handle struct {
	p    *Pool
	last int
}

// Handle creates an affinity handle.
func (p *Pool) Handle() *Handle { return &Handle{p: p, last: -1} }

// Acquire leases a slot, preferring this handle's previous one.
func (h *Handle) Acquire(ctx context.Context) (int, error) {
	return h.AcquireSpan(ctx, nil)
}

// AcquireSpan is Acquire with a request span: when the lease has to
// queue, the queued time is stamped as the span's Wait phase.
func (h *Handle) AcquireSpan(ctx context.Context, sp *obs.Span) (int, error) {
	slot, err := h.p.acquire(ctx, h.last, sp)
	if err == nil {
		h.last = slot
	}
	return slot, err
}

// TryAcquire leases a slot (preferring this handle's previous one) only
// when one is free right now; it never queues.
func (h *Handle) TryAcquire() (int, bool) {
	slot, ok := h.p.tryAcquire(h.last)
	if ok {
		h.last = slot
	}
	return slot, ok
}

// Release returns the slot to the pool.
func (h *Handle) Release(slot int) { h.p.Release(slot) }

// Do leases a slot (with affinity) for the duration of fn.
func (h *Handle) Do(ctx context.Context, fn func(tid int)) error {
	slot, err := h.Acquire(ctx)
	if err != nil {
		return err
	}
	defer h.Release(slot)
	fn(slot)
	return nil
}
