package lockfree

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"hohtx/internal/arena"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
)

// The paper's two Harris lists: the leaking one, and hazard pointers (the
// TMHP mode's scheme).
func newLFLeak(cfg reclaim.Config) *HarrisList { return NewHarrisList("LFLeak", reclaim.NewLeak, cfg) }
func newLFHP(cfg reclaim.Config) *HarrisList {
	return NewHarrisList("LFHP", reclaim.ModeTMHP.Scheme, cfg)
}

func lists(threads int) []*HarrisList {
	return []*HarrisList{
		newLFLeak(reclaim.Config{Threads: threads}),
		newLFHP(reclaim.Config{Threads: threads, ScanThreshold: 8}),
	}
}

// TestNodeLayout pins the comparators' slots: a node's 8-B words and
// nothing else — no pad, as the TM nodes they are measured against have
// none — so a list node is 16 B in a 24-B slot and costs a key 24 B, and a
// tree node is 24 B in a 32-B slot and costs a key, a leaf and its router,
// 64 B.
func TestNodeLayout(t *testing.T) {
	l := newLFLeak(reclaim.Config{Threads: 1})
	tr := NewNMTree(reclaim.Config{Threads: 1})
	for _, c := range []struct {
		name              string
		typ               reflect.Type
		stride, perKey    uintptr
		size, slot, bytes uintptr // wanted: node, slot stride, bytes per key
	}{
		{"lfNode", reflect.TypeOf(lfNode{}), slotStride(l.ar), uintptr(l.Books(0).PerKey), 16, 24, 24},
		{"nmNode", reflect.TypeOf(nmNode{}), slotStride(tr.ar), uintptr(tr.Books(0).PerKey), 24, 32, 64},
	} {
		words := uintptr(0)
		for i := 0; i < c.typ.NumField(); i++ {
			if c.typ.Field(i).Name != "_" {
				words++
			}
		}
		if got := c.typ.Size(); got != words*8 || got != c.size {
			t.Errorf("%s is %d bytes, want %d: its %d words and no pad", c.name, got, c.size, words)
		}
		checkStride(t, c.name, c.stride, c.slot)
		if got := c.perKey * c.stride; got != c.bytes {
			t.Errorf("%s: a key costs %d B, want %d", c.name, got, c.bytes)
		}
	}
}

// slotStride is the distance between consecutive slots of a's page 0,
// read off two fresh slots' addresses: the node and its generation word.
func slotStride[T any](a *arena.Arena[T]) uintptr {
	h0, h1 := a.Alloc(0), a.Alloc(0)
	defer a.Free(0, h0)
	defer a.Free(0, h1)
	d := int64(uintptr(unsafe.Pointer(a.At(h1)))) - int64(uintptr(unsafe.Pointer(a.At(h0))))
	return uintptr(d / (int64(h1.Index()) - int64(h0.Index())))
}

// checkStride fails t unless stride is want and not a power of two of
// 64 B or more: power-of-two strides alias in the L2's sets, and a pointer
// chase read 34.9 ns/hop at 128 B against 8.7-10.3 at 144-152 B
// (EXPERIMENTS.md, "What was not kept").
func checkStride(t *testing.T, name string, stride, want uintptr) {
	t.Helper()
	if stride != want {
		t.Errorf("%s: arena slot stride %d B, want %d", name, stride, want)
	}
	if stride >= 64 && stride&(stride-1) == 0 {
		t.Errorf("%s: arena slot stride %d B is a power of two of 64 B or more", name, stride)
	}
}

func TestListSequential(t *testing.T) {
	for _, l := range lists(1) {
		t.Run(l.Name(), func(t *testing.T) {
			l.Register(0)
			if l.Lookup(0, 3) || l.Remove(0, 3) {
				t.Fatal("empty list misbehaved")
			}
			for _, k := range []uint64{5, 2, 8, 1} {
				if !l.Insert(0, k) {
					t.Fatalf("insert %d", k)
				}
			}
			if l.Insert(0, 5) {
				t.Fatal("duplicate insert")
			}
			if !l.Lookup(0, 2) || l.Lookup(0, 3) {
				t.Fatal("lookup wrong")
			}
			if !l.Remove(0, 5) || l.Remove(0, 5) {
				t.Fatal("remove semantics")
			}
			if got := l.Snapshot(); !sets.KeysEqual(got, []uint64{1, 2, 8}) {
				t.Fatalf("snapshot = %v", got)
			}
			l.Finish(0)
		})
	}
}

func TestListSequentialVsModel(t *testing.T) {
	for _, l := range lists(1) {
		t.Run(l.Name(), func(t *testing.T) {
			l.Register(0)
			rng := rand.New(rand.NewSource(3))
			model := map[uint64]bool{}
			for i := 0; i < 5000; i++ {
				key := uint64(rng.Intn(64)) + 1
				switch rng.Intn(3) {
				case 0:
					if got, want := l.Insert(0, key), !model[key]; got != want {
						t.Fatalf("Insert(%d) = %v want %v", key, got, want)
					}
					model[key] = true
				case 1:
					if got, want := l.Remove(0, key), model[key]; got != want {
						t.Fatalf("Remove(%d) = %v want %v", key, got, want)
					}
					delete(model, key)
				default:
					if got, want := l.Lookup(0, key), model[key]; got != want {
						t.Fatalf("Lookup(%d) = %v want %v", key, got, want)
					}
				}
			}
			l.Finish(0)
		})
	}
}

// TestLFHPRecyclesMemory: with hazard pointers, removed nodes are reused;
// with leak, they are not.
func TestLFHPRecyclesMemory(t *testing.T) {
	hp := newLFHP(reclaim.Config{Threads: 1, ScanThreshold: 4})
	hp.Register(0)
	for round := 0; round < 50; round++ {
		for k := uint64(1); k <= 10; k++ {
			hp.Insert(0, k)
		}
		for k := uint64(1); k <= 10; k++ {
			hp.Remove(0, k)
		}
	}
	hp.Finish(0)
	if live := hp.LiveNodes(); live > 32 {
		t.Fatalf("LFHP live nodes = %d after churn; memory not recycled", live)
	}

	leak := newLFLeak(reclaim.Config{Threads: 1})
	leak.Register(0)
	for round := 0; round < 50; round++ {
		for k := uint64(1); k <= 10; k++ {
			leak.Insert(0, k)
			leak.Remove(0, k)
		}
	}
	leak.Finish(0)
	if def := leak.DeferredNodes(); def != 500 {
		t.Fatalf("LFLeak deferred = %d, want 500 (every removed node leaks)", def)
	}
	if live := leak.LiveNodes(); live != 501 {
		t.Fatalf("LFLeak live = %d, want 501", live)
	}
}

// TestLFHPPublishesTwoSlots: find protects prev and curr in hazard slots 0
// and 1, the two each thread of the TMHP scheme owns. After churn, with
// every thread but 0 parked inside a find and thread 0 removing every key
// and finishing, what thread 0 leaves over is exactly the parked threads'
// prev and curr nodes: within the StrandBound trait's bound of two per
// thread.
func TestLFHPPublishesTwoSlots(t *testing.T) {
	const threads = 4
	l := newLFHP(reclaim.Config{Threads: threads, ScanThreshold: 2})
	if !l.Books(0).Traits.StrandBound {
		t.Fatal("LFHP's scheme is not strand-bound")
	}
	stressSet(t, l, threads, 2000, 32)
	for tid := range threads {
		l.Finish(tid)
	}
	for _, k := range l.Snapshot() {
		l.Remove(0, k)
	}
	for k := uint64(1); k <= 4*threads; k++ {
		l.Insert(0, k)
	}
	for tid := 1; tid < threads; tid++ {
		l.find(tid, uint64(4*tid+2)) // parked: prev 4t+1, curr 4t+2 stay published
	}
	for k := uint64(1); k <= 4*threads; k++ {
		l.Remove(0, k)
	}
	l.Finish(0)
	left := l.ReclaimStats().Leftover
	if left > 2*threads {
		t.Fatalf("leftover %d after thread 0's Finish, past the bound of %d", left, 2*threads)
	}
	if left != 2*(threads-1) {
		t.Fatalf("leftover %d after thread 0's Finish, want the %d parked prev and curr nodes", left, 2*(threads-1))
	}
	for tid := 1; tid < threads; tid++ {
		l.Finish(tid)
	}
	l.Finish(0)
	if st := l.ReclaimStats(); st.Leftover != 0 || st.Deferred != 0 {
		t.Fatalf("after the parked threads finished: %+v", st)
	}
}

// TestComparatorsTakeTheArenaPolicy: every comparator runs the arena
// policy its Config names. Built with the shared policy, every Alloc and
// Free of its arena is one shared-pool critical section: two alloc–free
// pairs cost four, where the local policy's magazine keeps the freed slot
// and an empty magazine skips an empty pool, so they cost none.
func TestComparatorsTakeTheArenaPolicy(t *testing.T) {
	cfg := reclaim.Config{Threads: 1, ArenaPolicy: arena.PolicyShared}
	for _, l := range []*HarrisList{newLFLeak(cfg), newLFHP(cfg)} {
		t.Run("list/"+l.Name(), func(t *testing.T) { checkSharedPool(t, l, l.ar) })
	}
	tr := NewNMTree(cfg)
	t.Run("nmtree/"+tr.Name(), func(t *testing.T) { checkSharedPool(t, tr, tr.ar) })
}

func checkSharedPool[T any](t *testing.T, s sets.Set, ar *arena.Arena[T]) {
	s.Register(0)
	for k := uint64(1); k <= 4; k++ {
		s.Insert(0, k)
	}
	before := ar.Stats().PoolOps
	if before == 0 {
		t.Fatal("no shared-pool op after four inserts")
	}
	for range 2 {
		ar.Free(0, ar.Alloc(0))
	}
	if d := ar.Stats().PoolOps - before; d != 4 {
		t.Fatalf("two alloc–free pairs took %d shared-pool ops, want 4 (the local policy takes 0)", d)
	}
}

func stressSet(t *testing.T, s sets.Set, threads, iters int, keyRange uint64) {
	t.Helper()
	var succIns, succRem atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s.Register(tid)
			rng := rand.New(rand.NewSource(int64(tid)*31337 + 5))
			for i := 0; i < iters; i++ {
				key := uint64(rng.Int63())%keyRange + 1
				switch rng.Intn(3) {
				case 0:
					if s.Insert(tid, key) {
						succIns.Add(1)
					}
				case 1:
					if s.Remove(tid, key) {
						succRem.Add(1)
					}
				default:
					s.Lookup(tid, key)
				}
			}
			s.Finish(tid)
		}(w)
	}
	wg.Wait()
	snap := s.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1] >= snap[i] {
			t.Fatalf("snapshot not sorted")
		}
	}
	if int64(len(snap)) != succIns.Load()-succRem.Load() {
		t.Fatalf("balance violated: |set| = %d, inserts-removes = %d",
			len(snap), succIns.Load()-succRem.Load())
	}
}

func TestListConcurrentStress(t *testing.T) {
	const threads = 8
	for _, l := range lists(threads) {
		t.Run(l.Name(), func(t *testing.T) {
			stressSet(t, l, threads, 3000, 64)
		})
	}
}

// TestListHighContentionSameKey: all threads fight over one key.
func TestListHighContentionSameKey(t *testing.T) {
	for _, l := range lists(8) {
		t.Run(l.Name(), func(t *testing.T) {
			var wg sync.WaitGroup
			var ins, rem atomic.Int64
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					l.Register(tid)
					for i := 0; i < 2000; i++ {
						if l.Insert(tid, 7) {
							ins.Add(1)
						}
						if l.Remove(tid, 7) {
							rem.Add(1)
						}
					}
					l.Finish(tid)
				}(w)
			}
			wg.Wait()
			present := int64(len(l.Snapshot()))
			if ins.Load()-rem.Load() != present {
				t.Fatalf("balance: ins=%d rem=%d present=%d", ins.Load(), rem.Load(), present)
			}
		})
	}
}

func TestNMTreeSequential(t *testing.T) {
	tr := NewNMTree(reclaim.Config{Threads: 1})
	tr.Register(0)
	if tr.Lookup(0, 5) || tr.Remove(0, 5) {
		t.Fatal("empty tree misbehaved")
	}
	for _, k := range []uint64{50, 30, 70, 20, 40, 60, 80} {
		if !tr.Insert(0, k) {
			t.Fatalf("insert %d", k)
		}
	}
	if tr.Insert(0, 40) {
		t.Fatal("duplicate insert")
	}
	for _, k := range []uint64{20, 30, 40, 50, 60, 70, 80} {
		if !tr.Lookup(0, k) {
			t.Fatalf("lookup %d", k)
		}
	}
	if !tr.ValidateRouting() {
		t.Fatal("routing invalid")
	}
	for _, k := range []uint64{30, 50, 80} {
		if !tr.Remove(0, k) || tr.Lookup(0, k) {
			t.Fatalf("remove %d", k)
		}
	}
	if got := tr.Snapshot(); !sets.KeysEqual(got, []uint64{20, 40, 60, 70}) {
		t.Fatalf("snapshot = %v", got)
	}
	if !tr.ValidateRouting() {
		t.Fatal("routing invalid after removes")
	}
	if tr.DeferredNodes() != 6 {
		t.Fatalf("leaked = %d, want 6 (leaf+router per remove)", tr.DeferredNodes())
	}
}

func TestNMTreeSequentialVsModel(t *testing.T) {
	tr := NewNMTree(reclaim.Config{Threads: 1})
	tr.Register(0)
	rng := rand.New(rand.NewSource(11))
	model := map[uint64]bool{}
	for i := 0; i < 6000; i++ {
		key := uint64(rng.Intn(128)) + 1
		switch rng.Intn(3) {
		case 0:
			if got, want := tr.Insert(0, key), !model[key]; got != want {
				t.Fatalf("Insert(%d) = %v want %v", key, got, want)
			}
			model[key] = true
		case 1:
			if got, want := tr.Remove(0, key), model[key]; got != want {
				t.Fatalf("Remove(%d) = %v want %v", key, got, want)
			}
			delete(model, key)
		default:
			if got, want := tr.Lookup(0, key), model[key]; got != want {
				t.Fatalf("Lookup(%d) = %v want %v", key, got, want)
			}
		}
		if i%1000 == 0 && !tr.ValidateRouting() {
			t.Fatalf("routing invalid at op %d", i)
		}
	}
}

func TestNMTreeConcurrentStress(t *testing.T) {
	const threads = 8
	tr := NewNMTree(reclaim.Config{Threads: threads})
	stressSet(t, tr, threads, 3000, 128)
	if !tr.ValidateRouting() {
		t.Fatal("routing invalid after stress")
	}
}

func TestNMTreeContentionSameKeys(t *testing.T) {
	const threads = 8
	tr := NewNMTree(reclaim.Config{Threads: threads})
	var wg sync.WaitGroup
	var ins, rem atomic.Int64
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			tr.Register(tid)
			for i := 0; i < 1500; i++ {
				k := uint64(i%3) + 10
				if tr.Insert(tid, k) {
					ins.Add(1)
				}
				if tr.Remove(tid, k) {
					rem.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := ins.Load() - rem.Load(); got != int64(len(tr.Snapshot())) {
		t.Fatalf("balance: %d vs %d", got, len(tr.Snapshot()))
	}
	if !tr.ValidateRouting() {
		t.Fatal("routing invalid")
	}
}

func TestMarkHelpers(t *testing.T) {
	h := uint64(0x12345)
	if marked(h) {
		t.Fatal("clean handle reported marked")
	}
	if !marked(h | markBit) {
		t.Fatal("marked handle not detected")
	}
	if clearMark(h|markBit) != clearMark(h) {
		t.Fatal("clearMark broken")
	}
	raw := h | flagBit | tagBit
	if addrOf(raw) != clearMark(h) || !flagged(raw) || !tagged(raw) {
		t.Fatal("NM bit helpers broken")
	}
}
