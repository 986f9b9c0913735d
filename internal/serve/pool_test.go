package serve_test

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hohtx/internal/bench"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
)

// newSet builds the reference structure for pool tests: the singly linked
// list with RR-V reservations (precise reclamation, so the memory checks
// are exact).
func newSet(t *testing.T, threads int) sets.Set {
	t.Helper()
	s, err := bench.Build(bench.FamilySingly, bench.VariantSpec{Name: "RR-V"}, threads)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return s
}

// TestLeaseContention multiplexes many more goroutines than slots and
// checks the invariant the pool exists for: no slot is ever leased twice
// at once, and every goroutine still gets its operations through.
func TestLeaseContention(t *testing.T) {
	const slots, goroutines, opsEach = 4, 32, 200
	set := newSet(t, slots)
	p := serve.NewPool(set, serve.PoolConfig{Slots: slots})

	var inUse [slots]atomic.Int32
	var ops atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := p.Handle()
			for i := 0; i < opsEach; i++ {
				err := h.Do(context.Background(), func(tid int) {
					if n := inUse[tid].Add(1); n != 1 {
						t.Errorf("slot %d leased %d times concurrently", tid, n)
					}
					key := uint64(g*opsEach+i)%512 + 1
					if set.Insert(tid, key) {
						set.Remove(tid, key)
					}
					// Give the slot's lease a chance to be contended: with
					// fewer processors than slots, holders that never yield
					// are never all out at once and nobody waits.
					runtime.Gosched()
					ops.Add(1)
					inUse[tid].Add(-1)
				})
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := ops.Load(); got != goroutines*opsEach {
		t.Fatalf("ops = %d, want %d", got, goroutines*opsEach)
	}
	st := p.Stats()
	if st.Leases != goroutines*opsEach {
		t.Fatalf("Leases = %d, want %d", st.Leases, goroutines*opsEach)
	}
	if st.Outstanding != 0 || st.Waiting != 0 {
		t.Fatalf("pool not quiesced: %+v", st)
	}
	if st.Waits == 0 {
		t.Fatalf("32 goroutines on 4 slots never waited; Stats = %+v", st)
	}
	p.Close()
	if _, err := p.Acquire(context.Background()); err != serve.ErrClosed {
		t.Fatalf("Acquire after Close = %v, want serve.ErrClosed", err)
	}
}

// TestAcquireContextCancel cancels a queued waiter and checks the pool
// stays healthy (the slot is not lost, later acquires work).
func TestAcquireContextCancel(t *testing.T) {
	set := newSet(t, 1)
	p := serve.NewPool(set, serve.PoolConfig{Slots: 1})

	slot, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("queued Acquire = %v, want DeadlineExceeded", err)
	}
	if st := p.Stats(); st.Cancels != 1 || st.Waiting != 0 {
		t.Fatalf("after cancel: %+v", st)
	}
	p.Release(slot)
	got, err := p.Acquire(context.Background())
	if err != nil || got != slot {
		t.Fatalf("post-cancel Acquire = (%d, %v), want (%d, nil)", got, err, slot)
	}
	p.Release(got)
	p.Close()
}

// TestHandleAffinity checks a handle is handed its previous slot back
// when that slot is free, even when other slots are also free.
func TestHandleAffinity(t *testing.T) {
	const slots = 4
	set := newSet(t, slots)
	p := serve.NewPool(set, serve.PoolConfig{Slots: slots})
	h := p.Handle()

	first, err := h.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	// Disturb the free stack: lease and return another slot so that slot,
	// not the handle's, sits on top — plain LIFO would hand it out.
	other, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatalf("disturb Acquire: %v", err)
	}
	h.Release(first)
	p.Release(other)
	again, err := h.Acquire(context.Background())
	if err != nil {
		t.Fatalf("re-Acquire: %v", err)
	}
	if again != first {
		t.Fatalf("affinity re-acquire got slot %d, want %d", again, first)
	}
	if st := p.Stats(); st.AffinityHits == 0 {
		t.Fatalf("AffinityHits = 0 after an affinity re-acquire; Stats = %+v", st)
	}
	h.Release(again)
	p.Close()
}

// TestAcquireSaturation checks the bounded FIFO queue rejects beyond its
// bound instead of queueing without limit.
func TestAcquireSaturation(t *testing.T) {
	set := newSet(t, 1)
	p := serve.NewPool(set, serve.PoolConfig{Slots: 1, MaxWaiters: 2})

	slot, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = p.Acquire(ctx)
		}()
	}
	waitFor(t, func() bool { return p.Stats().Waiting == 2 })
	if _, err := p.Acquire(context.Background()); err != serve.ErrSaturated {
		t.Fatalf("Acquire over full queue = %v, want serve.ErrSaturated", err)
	}
	if st := p.Stats(); st.Rejections != 1 {
		t.Fatalf("Rejections = %d, want 1", st.Rejections)
	}
	cancel()
	wg.Wait()
	p.Release(slot)
	p.Close()
}

// TestFIFOOrder checks queued waiters are granted strictly in arrival
// order.
func TestFIFOOrder(t *testing.T) {
	set := newSet(t, 1)
	p := serve.NewPool(set, serve.PoolConfig{Slots: 1})

	slot, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	const waiters = 4
	order := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := p.Acquire(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			p.Release(s)
		}(i)
		waitFor(t, func() bool { return p.Stats().Waiting == i+1 })
	}
	p.Release(slot)
	wg.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("grant order: got waiter %d in position %d", got, want)
		}
		want++
	}
	p.Close()
}

// TestCloseFailsWaiters checks Close resolves queued waiters with
// serve.ErrClosed and still waits for outstanding leases before flushing.
func TestCloseFailsWaiters(t *testing.T) {
	set := newSet(t, 1)
	p := serve.NewPool(set, serve.PoolConfig{Slots: 1})

	slot, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	waiterErr := make(chan error, 1)
	go func() {
		_, err := p.Acquire(context.Background())
		waiterErr <- err
	}()
	waitFor(t, func() bool { return p.Stats().Waiting == 1 })

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	if err := <-waiterErr; err != serve.ErrClosed {
		t.Fatalf("queued waiter got %v, want serve.ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a lease was outstanding")
	case <-time.After(20 * time.Millisecond):
	}
	p.Release(slot)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after the last release")
	}
}

// waitFor polls cond with a deadline (the pool has no test hooks; its
// observable state is Stats).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// A nil context on Acquire/Do must mean "wait forever", not panic when
// the caller happens to hit the queued path. The two goroutines force a
// queue hand-off with one slot.
func TestPoolNilContextQueues(t *testing.T) {
	p := serve.NewPool(newSet(t, 1), serve.PoolConfig{Slots: 1})
	defer p.Close()
	slot, err := p.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- p.Do(nil, func(tid int) {})
	}()
	time.Sleep(20 * time.Millisecond) // let the Do queue behind the lease
	p.Release(slot)
	if err := <-done; err != nil {
		t.Fatalf("queued Do with nil ctx: %v", err)
	}
}
