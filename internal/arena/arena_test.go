package arena

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

type obj struct {
	a, b uint64
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a := New[obj](Config{Threads: 1})
	h := a.Alloc(0)
	if h.IsNil() {
		t.Fatal("Alloc returned Nil")
	}
	p := a.At(h)
	p.a, p.b = 1, 2
	if !a.Live(h) {
		t.Fatal("freshly allocated handle not live")
	}
	a.Free(0, h)
	if a.Live(h) {
		t.Fatal("freed handle still live")
	}
	st := a.Stats()
	if st.Allocs != 1 || st.Frees != 1 || st.Live != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRecycleBumpsGeneration(t *testing.T) {
	a := New[obj](Config{Threads: 1})
	h1 := a.Alloc(0)
	a.Free(0, h1)
	h2 := a.Alloc(0)
	if h2.Index() != h1.Index() {
		t.Fatalf("expected slot reuse: %v then %v", h1, h2)
	}
	if h2.Gen() == h1.Gen() {
		t.Fatal("recycled slot kept its generation")
	}
	if a.Live(h1) {
		t.Fatal("stale handle reports live after recycle")
	}
	if !a.Live(h2) {
		t.Fatal("new handle not live")
	}
}

// TestDoubleFreePanics: freeing a handle a second time trips the
// double-free check, which names itself.
func TestDoubleFreePanics(t *testing.T) {
	a := New[obj](Config{Threads: 1})
	h := a.Alloc(0)
	a.Free(0, h)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double free did not panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "double free") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	a.Free(0, h)
}

func TestStaleFreePanics(t *testing.T) {
	a := New[obj](Config{Threads: 1})
	h1 := a.Alloc(0)
	a.Free(0, h1)
	_ = a.Alloc(0) // recycles the slot
	defer func() {
		if recover() == nil {
			t.Fatal("free through stale handle did not panic")
		}
	}()
	a.Free(0, h1)
}

func TestNilHandle(t *testing.T) {
	a := New[obj](Config{Threads: 1})
	if !Nil.IsNil() {
		t.Fatal("Nil.IsNil() == false")
	}
	if a.Live(Nil) {
		t.Fatal("Nil handle live")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At(Nil) did not panic")
		}
	}()
	_ = a.At(Nil)
}

func TestUserBitRejected(t *testing.T) {
	a := New[obj](Config{Threads: 1})
	h := a.Alloc(0)
	marked := Handle(uint64(h) | userBit)
	if a.Live(marked) {
		t.Fatal("marked handle reported live")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At(marked) did not panic")
		}
	}()
	_ = a.At(marked)
}

func TestGrowthAcrossPages(t *testing.T) {
	a := newGuarded(nil) // guarded, so Audit and the poisoner are checked too
	n := pageSize*2 + 4
	hs := make([]Handle, n)
	for i := range hs {
		hs[i] = a.Alloc(0)
		a.At(hs[i]).a = uint64(i)
	}
	for i := range hs {
		if got := a.At(hs[i]).a; got != uint64(i) {
			t.Fatalf("slot %d corrupted: %d", i, got)
		}
	}
	pages := *a.slots.vec.Load()
	if len(pages) < 3 {
		t.Fatalf("expected >= 3 pages, got %d", len(pages))
	}
	if a.slots.first != pages[0] {
		t.Fatal("growth replaced page 0: the short translation names a page the vector does not")
	}
	if st := a.Stats(); st.Live != uint64(n) {
		t.Fatalf("live = %d, want %d", st.Live, n)
	}

	// The last slot of page 0 (short translation) and the first slots past
	// it (the vector's) resolve, through every entry point, to the slot the
	// vector names.
	freed := map[uint32]bool{}
	for _, idx := range []uint32{pageSize - 1, pageSize, 2*pageSize + 2} {
		h := hs[idx]
		slot := &pages[idx>>pageShift][idx&pageMask]
		switch {
		case h.Index() != idx:
			t.Fatalf("handle %v for slot %d", h, idx)
		case a.At(h) != &slot.val:
			t.Fatalf("slot %d: At names another slot than the page vector", idx)
		case !a.Live(h):
			t.Fatalf("slot %d: Live reports a live handle dead", idx)
		case a.Audit(h) != SlotAudit{LastAllocTid: 0, LastFreeTid: 0, Allocs: 1, Gen: h.Gen()}:
			t.Fatalf("slot %d: audit %+v before the free", idx, a.Audit(h))
		}
		a.Free(0, h)
		freed[idx] = true
		switch {
		case slot.val != twoWords{PoisonWord, PoisonWord}:
			t.Fatalf("slot %d: the free poisoned another slot (payload %#x)", idx, slot.val)
		case !freed[idx-1] && a.At(hs[idx-1]).a != uint64(idx-1) || a.At(hs[idx+1]).a != uint64(idx+1):
			t.Fatalf("slot %d: a neighbour changed", idx)
		case a.Live(h):
			t.Fatalf("slot %d: Live reports a freed handle live", idx)
		case slot.gen.Load() != h.Gen()+1:
			t.Fatalf("slot %d: generation %d after the free of gen %d", idx, slot.gen.Load(), h.Gen())
		case a.Audit(h) != SlotAudit{Allocs: 1, Frees: 1, Gen: h.Gen() + 1}:
			t.Fatalf("slot %d: audit %+v after the free", idx, a.Audit(h))
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "double free") {
					t.Fatalf("slot %d: second free: panic %q, want a double free", idx, msg)
				}
			}()
			a.Free(0, h)
		}()
	}
	if a.Live(makeHandle(uint32(len(pages))*pageSize, 1)) {
		t.Fatal("Live reports a handle past the last page live")
	}
}

// TestPagesGrowUnderReaders: readers index entries written before each
// Grow while several goroutines grow the table across three pages. Page 0
// is written once, before the vector that publishes it, so its address
// never changes and (under -race) no Grow writes what readers read.
func TestPagesGrowUnderReaders(t *testing.T) {
	var p Pages[atomic.Uint64]
	if p.Has(0) {
		t.Fatal("the zero Pages has entry 0")
	}
	p.Grow(0)
	first := p.At(0)
	var written atomic.Uint32 // entries [0, written) hold their index + 1
	fill := func(pg uint32) {
		for i := pg * pageSize; i < (pg+1)*pageSize; i++ {
			p.At(i).Store(uint64(i) + 1)
		}
		written.Store((pg + 1) * pageSize)
	}
	fill(0)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	var started atomic.Int32
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r uint32) {
			defer readers.Done()
			started.Add(1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if p.At(0) != first {
					t.Error("page 0 moved")
					return
				}
				n := written.Load()
				for i := r; i < n; i += 61 {
					if !p.Has(i) || p.At(i).Load() != uint64(i)+1 {
						t.Errorf("entry %d of %d written: Has %v, reads %d", i, n, p.Has(i), p.At(i).Load())
						return
					}
				}
			}
		}(uint32(r))
	}
	for started.Load() < 2 {
		runtime.Gosched()
	}
	for pg := uint32(1); pg < 3; pg++ {
		// A sleep orders nothing: the readers' reads in it race any write a
		// Grow makes to what they read.
		time.Sleep(time.Millisecond)
		var growers sync.WaitGroup
		for k := uint32(0); k < 3; k++ {
			growers.Add(1)
			go func() {
				defer growers.Done()
				p.Grow(pg*pageSize + k*pageSize/2) // the last one makes the next page too
			}()
		}
		growers.Wait()
		fill(pg)
	}
	close(stop)
	readers.Wait()
	if p.At(0) != first || !p.Has(4*pageSize-1) || p.Has(4*pageSize) {
		t.Fatalf("after growth: page 0 moved %v, Has(last) %v, Has(past the last page) %v",
			p.At(0) != first, p.Has(4*pageSize-1), p.Has(4*pageSize))
	}
}

func TestMagazineOverflowToShared(t *testing.T) {
	a := New[obj](Config{Threads: 2, MagazineSize: 8})
	var hs []Handle
	for i := 0; i < 64; i++ {
		hs = append(hs, a.Alloc(0))
	}
	for _, h := range hs {
		a.Free(0, h)
	}
	if a.Stats().PoolOps == 0 {
		t.Fatal("magazine never flushed to shared pool")
	}
	// A different thread must be able to reuse those slots.
	fresh := a.Stats().Fresh
	for i := 0; i < 32; i++ {
		_ = a.Alloc(1)
	}
	if a.Stats().Fresh != fresh {
		t.Fatal("thread 1 bump-allocated instead of reusing freed slots")
	}
}

// TestSharedPolicyReuses: under PolicyShared every Alloc and every Free
// takes the pool lock once, and a freed slot is the next one handed out, to
// any thread: n alloc–free pairs are 2n pool operations and one fresh slot.
func TestSharedPolicyReuses(t *testing.T) {
	a := New[obj](Config{Threads: 2, Policy: PolicyShared})
	h := a.Alloc(0)
	a.Free(0, h)
	h2 := a.Alloc(1)
	if h2.Index() != h.Index() {
		t.Fatal("shared policy did not reuse freed slot")
	}
	if a.Stats().PoolOps < 2 {
		t.Fatal("shared policy bypassed the pool lock")
	}
	a.Free(1, h2)
	const n = 100
	for i := 2; i < n; i++ {
		a.Free(i%2, a.Alloc(i%2))
	}
	if st := a.Stats(); st.PoolOps != 2*n || st.Fresh != 1 || st.Live != 0 {
		t.Fatalf("%d alloc-free pairs: %+v, want PoolOps %d, Fresh 1, Live 0", n, st, 2*n)
	}
}

// TestLocalGrowthSkipsThePool: under PolicyLocal an Alloc whose magazine
// and the shared pool are both empty bump-allocates without taking the
// pool lock, so a growing arena takes none.
func TestLocalGrowthSkipsThePool(t *testing.T) {
	a := New[obj](Config{Threads: 1})
	for range 1000 {
		a.Alloc(0)
	}
	if st := a.Stats(); st.PoolOps != 0 || st.Fresh != 1000 {
		t.Fatalf("1000 fresh Allocs: %+v, want PoolOps 0, Fresh 1000", st)
	}
}

// TestConcurrentChurn hammers alloc/free from several goroutines and then
// checks the books balance and no two live handles alias a slot.
func TestConcurrentChurn(t *testing.T) {
	for _, pol := range []Policy{PolicyLocal, PolicyShared} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			const workers = 8
			const iters = 5000
			a := New[obj](Config{Threads: workers, Policy: pol, MagazineSize: 16})
			var wg sync.WaitGroup
			liveSets := make([][]Handle, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := uint64(tid)*2654435761 + 1
					var mine []Handle
					for i := 0; i < iters; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						if rng&1 == 0 || len(mine) == 0 {
							h := a.Alloc(tid)
							a.At(h).a = uint64(tid)<<32 | uint64(i)
							mine = append(mine, h)
						} else {
							k := int(rng % uint64(len(mine)))
							a.Free(tid, mine[k])
							mine[k] = mine[len(mine)-1]
							mine = mine[:len(mine)-1]
						}
					}
					liveSets[tid] = mine
				}(w)
			}
			wg.Wait()

			var live int
			seen := make(map[uint32]Handle)
			for tid, set := range liveSets {
				for _, h := range set {
					live++
					if !a.Live(h) {
						t.Fatalf("tid %d: live handle %v reports dead", tid, h)
					}
					if prev, dup := seen[h.Index()]; dup {
						t.Fatalf("two live handles alias slot %d: %v and %v", h.Index(), prev, h)
					}
					seen[h.Index()] = h
				}
			}
			st := a.Stats()
			if st.Live != uint64(live) {
				t.Fatalf("stats live = %d, actual %d", st.Live, live)
			}
		})
	}
}

// TestHandleAlgebra property-checks pack/unpack round trips.
func TestHandleAlgebra(t *testing.T) {
	f := func(idx uint32, gen uint32) bool {
		gen |= 1 // live generations are odd
		h := makeHandle(idx, gen)
		return h.Index() == idx && h.Gen() == gen&genMask && !h.IsNil()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAllocFreeSequences property-checks random alloc/free programs
// against a reference model of which handles should be live.
func TestQuickAllocFreeSequences(t *testing.T) {
	f := func(script []byte) bool {
		a := New[obj](Config{Threads: 1, MagazineSize: 4})
		model := make(map[Handle]bool)
		var order []Handle
		for _, b := range script {
			if b&1 == 0 || len(order) == 0 {
				h := a.Alloc(0)
				if model[h] {
					return false // duplicate live handle
				}
				model[h] = true
				order = append(order, h)
			} else {
				k := int(b>>1) % len(order)
				h := order[k]
				a.Free(0, h)
				delete(model, h)
				order = append(order[:k], order[k+1:]...)
			}
		}
		for h := range model {
			if !a.Live(h) {
				return false
			}
		}
		return a.Stats().Live == uint64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHandleString(t *testing.T) {
	if Nil.String() != "hnil" {
		t.Errorf("Nil.String() = %q", Nil.String())
	}
	h := makeHandle(5, 3)
	if h.String() != "h5.g3" {
		t.Errorf("String() = %q, want h5.g3", h.String())
	}
	if PolicyLocal.String() == PolicyShared.String() {
		t.Error("policy names collide")
	}
}
