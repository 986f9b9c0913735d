package skiplist

import (
	"sync"
	"sync/atomic"
	"testing"

	"hohtx/internal/core"
	"hohtx/internal/obs"
	"hohtx/internal/reclaim"
	"hohtx/internal/stm"
)

func TestSkipAscendSequential(t *testing.T) {
	for _, k := range core.Kinds() {
		s := New(Config{Mode: reclaim.ModeRR, RRKind: k, Threads: 1, Window: core.Window{W: 3}})
		t.Run(s.Name(), func(t *testing.T) {
			s.Register(0)
			for key := uint64(2); key <= 80; key += 2 {
				s.Insert(0, key)
			}
			var got []uint64
			if err := s.Ascend(0, 0, func(key uint64) bool {
				got = append(got, key)
				return true
			}); err != nil {
				t.Fatalf("Ascend: %v", err)
			}
			if len(got) != 40 {
				t.Fatalf("ascend yielded %d keys, want 40: %v", len(got), got)
			}
			for i, key := range got {
				if key != uint64(2*(i+1)) {
					t.Fatalf("key[%d] = %d", i, key)
				}
			}
			// From a midpoint.
			got = got[:0]
			if err := s.Ascend(0, 41, func(key uint64) bool {
				got = append(got, key)
				return true
			}); err != nil {
				t.Fatalf("Ascend from 41: %v", err)
			}
			if len(got) != 20 || got[0] != 42 {
				t.Fatalf("ascend from 41: %v", got)
			}
			// Early stop must not leak a hold into the next op.
			count := 0
			if err := s.Ascend(0, 0, func(uint64) bool {
				count++
				return count < 5
			}); err != nil {
				t.Fatalf("early-stop Ascend: %v", err)
			}
			if count != 5 {
				t.Fatalf("early stop delivered %d", count)
			}
			if !s.Lookup(0, 2) {
				t.Fatal("lookup broken after early-stopped ascend")
			}
		})
	}
}

func TestSkipAscendHTMMode(t *testing.T) {
	s := New(Config{Mode: reclaim.ModeHTM, Threads: 1})
	s.Register(0)
	for key := uint64(1); key <= 10; key++ {
		s.Insert(0, key)
	}
	var n int
	if err := s.Ascend(0, 0, func(uint64) bool { n++; return true }); err != nil {
		t.Fatalf("Ascend: %v", err)
	}
	if n != 10 {
		t.Fatalf("HTM ascend yielded %d", n)
	}
}

// TestSkipAscendPanicReleasesHold mirrors the list regression: a
// panicking consumer must not leave the cursor's reservation behind.
func TestSkipAscendPanicReleasesHold(t *testing.T) {
	s := New(Config{Mode: reclaim.ModeRR, RRKind: core.KindV, Threads: 2,
		Window: core.Window{W: 2, NoScatter: true}})
	s.Register(0)
	s.Register(1)
	baseline := s.LiveNodes()
	for k := uint64(1); k <= 20; k++ {
		s.Insert(0, k)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the consumer panic to propagate")
			}
		}()
		_ = s.Ascend(0, 0, func(k uint64) bool {
			if k == 6 {
				panic("consumer bug")
			}
			return true
		})
	}()
	if !s.Lookup(0, 1) {
		t.Fatal("Lookup(1) false after panicking scan: reservation hold leaked")
	}
	for k := uint64(1); k <= 20; k++ {
		if !s.Remove(1, k) {
			t.Fatalf("Remove(%d) failed after panicking scan", k)
		}
	}
	if live := s.LiveNodes(); live != baseline {
		t.Fatalf("live nodes = %d after removing all, want baseline %d", live, baseline)
	}
}

// TestSkipAscendRenavigation removes held nodes behind the cursor's back
// and checks the scan both survives (complete, ascending, exactly-once
// for present-throughout keys) and counts at least one re-navigation.
func TestSkipAscendRenavigation(t *testing.T) {
	dom := obs.NewDomain(obs.DomainConfig{Name: "skip-iter-test", Threads: 2, SampleShift: 0})
	s := New(Config{Mode: reclaim.ModeRR, RRKind: core.KindV, Threads: 2,
		Window: core.Window{W: 2, NoScatter: true}, Obs: dom})
	s.Register(0)
	s.Register(1)
	for k := uint64(1); k <= 30; k++ {
		s.Insert(0, k)
	}
	// Remove the key right after each delivered key: whichever node the
	// cursor reserved at a cut, some removal will hit it.
	removed := map[uint64]bool{}
	var got []uint64
	if err := s.Ascend(0, 0, func(k uint64) bool {
		if k+1 <= 30 && !removed[k+1] {
			removed[k+1] = true
			s.Remove(1, k+1)
		}
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatalf("Ascend: %v", err)
	}
	last := uint64(0)
	for _, k := range got {
		if k <= last {
			t.Fatalf("out of order / duplicate at %d: %v", k, got)
		}
		last = k
	}
	if got[0] != 1 {
		t.Fatalf("first delivered key = %d, want 1", got[0])
	}
	snap := dom.Snapshot()
	if h, ok := snap.Hist(obs.HistAscendRenavs); !ok || h.Sum < 1 {
		t.Fatalf("ascend_renavigations = %+v, want sum >= 1", h)
	}
}

// TestSkipAscendConcurrent checks the weak-consistency contract under
// churn with immediate reclamation recycling nodes mid-scan.
func TestSkipAscendConcurrent(t *testing.T) {
	const stable = 50 // odd keys 1..99 stay put
	s := New(Config{Mode: reclaim.ModeRR, RRKind: core.KindV, Threads: 4, Window: core.Window{W: 4}})
	s.Register(0)
	for k := uint64(1); k <= 99; k += 2 {
		s.Insert(0, k)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 1; w <= 3; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s.Register(tid)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64((i*2+tid*4)%100) + 100 // churn keys 100..199
				s.Insert(tid, k)
				s.Remove(tid, k)
			}
		}(w)
	}
	var violations atomic.Int64
	for round := 0; round < 30; round++ {
		var got []uint64
		collect := func(key uint64) bool {
			got = append(got, key)
			return true
		}
		if round%2 == 0 {
			if err := s.Ascend(0, 0, collect); err != nil {
				t.Fatalf("round %d: Ascend: %v", round, err)
			}
		} else {
			// The same scan as a chain of bounded pulls, the way the
			// serving layer's merge runs it.
			for from, full := uint64(0), true; full; {
				n := len(got)
				if err := s.AscendN(0, from, 7, collect); err != nil {
					t.Fatalf("round %d: AscendN: %v", round, err)
				}
				if full = len(got)-n == 7; full {
					from = got[len(got)-1] + 1
				}
			}
		}
		seen := 0
		lastKey := uint64(0)
		for _, k := range got {
			if k <= lastKey {
				violations.Add(1) // out of order or duplicate
			}
			lastKey = k
			if k <= 99 && k%2 == 1 {
				seen++
			}
		}
		if seen != stable {
			t.Fatalf("round %d: saw %d of %d stable keys", round, seen, stable)
		}
	}
	close(stop)
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d ordering violations", violations.Load())
	}
}

// boundedSkip builds keys 1..keys on tid 0 of a two-thread RR-V skiplist.
func boundedSkip(w, keys, capacity int) *SkipList {
	s := New(Config{Mode: reclaim.ModeRR, RRKind: core.KindV, Threads: 2,
		Window: core.Window{W: w, NoScatter: true}, Profile: stm.Profile{Capacity: capacity}})
	s.Register(0)
	s.Register(1)
	for k := 1; k <= keys; k++ {
		s.Insert(0, uint64(k))
	}
	return s
}

// stopAt is the consumer that ends a scan itself, at its k-th key.
func stopAt(k int) func(uint64) bool {
	return func(uint64) bool { k--; return k > 0 }
}

// TestSkipAscendBounded pins what telling the cursor its bound buys over
// stopping it from fn at the same key: the same keys, one transaction fewer
// (the final window drops the hold itself), no hold left behind — also when
// fn panics before the bound — and nothing read past the last key.
func TestSkipAscendBounded(t *testing.T) {
	const keys, k = 40, 5
	commits := func(scan func(s *SkipList, fn func(uint64) bool) error, fn func(uint64) bool) (uint64, []uint64) {
		s := boundedSkip(2, keys, 0)
		var got []uint64
		c0 := s.TMStats().Commits
		if err := scan(s, func(key uint64) bool { got = append(got, key); return fn(key) }); err != nil {
			t.Fatalf("scan: %v", err)
		}
		return s.TMStats().Commits - c0, got
	}
	stopped, gotStopped := commits(func(s *SkipList, fn func(uint64) bool) error { return s.Ascend(0, 1, fn) }, stopAt(k))
	bounded, gotBounded := commits(func(s *SkipList, fn func(uint64) bool) error { return s.AscendN(0, 1, k, fn) },
		func(uint64) bool { return true })
	if len(gotBounded) != k || len(gotStopped) != k || gotBounded[k-1] != k || gotStopped[k-1] != k {
		t.Fatalf("bounded scan delivered %v, fn-stopped scan %v, want keys 1..%d from both", gotBounded, gotStopped, k)
	}
	if stopped-bounded != 1 {
		t.Fatalf("fn-stopped scan committed %d transactions, bounded scan %d: want exactly one fewer (the trailing drop)", stopped, bounded)
	}

	for _, tc := range []struct {
		name    string
		panicAt uint64
	}{{"bounded", 0}, {"panicked", 3}} {
		s := boundedSkip(2, 20, 0)
		baseline := s.LiveNodes() - 20
		func() {
			defer func() {
				if (recover() != nil) != (tc.panicAt != 0) {
					t.Fatalf("%s: consumer panic expected at key %d", tc.name, tc.panicAt)
				}
			}()
			_ = s.AscendN(0, 1, k, func(key uint64) bool {
				if key == tc.panicAt {
					panic("consumer bug")
				}
				return true
			})
		}()
		if !s.Lookup(0, 1) {
			t.Fatalf("%s: Lookup(1) false after the scan: its hold outlived it", tc.name)
		}
		for key := uint64(1); key <= 20; key++ {
			if !s.Remove(1, key) {
				t.Fatalf("%s: Remove(%d) failed after the scan", tc.name, key)
			}
		}
		if live := s.LiveNodes(); live != baseline {
			t.Fatalf("%s: live nodes = %d after removing all, want baseline %d", tc.name, live, baseline)
		}
	}

	// What a scan reads, measured as the smallest transaction capacity it
	// runs under without a capacity abort (one window covers the scan here,
	// and the heights drawn are the same in every instance). A key further
	// costs exactly its link and its key, so the scan stopped at the key
	// before; stopped by fn it had already read on.
	footprint := func(scan func(s *SkipList)) int {
		for c := 1; c < 4*keys; c++ {
			s := boundedSkip(64, keys, c)
			a0 := s.TMStats().Aborts[stm.CauseCapacity]
			scan(s)
			if s.TMStats().Aborts[stm.CauseCapacity] == a0 {
				return c
			}
		}
		t.Fatal("scan aborts on capacity under every capacity tried")
		return 0
	}
	all := func(uint64) bool { return true }
	atK := footprint(func(s *SkipList) { _ = s.AscendN(0, 1, k, all) })
	atK1 := footprint(func(s *SkipList) { _ = s.AscendN(0, 1, k+1, all) })
	byFn := footprint(func(s *SkipList) { _ = s.Ascend(0, 1, stopAt(k)) })
	if atK1-atK != 2 || byFn <= atK1 {
		t.Fatalf("cells read: %d bounded at %d keys, %d at %d, %d stopped by fn at %d; want +2 per key and fn-stopped well past both",
			atK, k, atK1, k+1, byFn, k)
	}
}

// TestSkipAscendDeferredModes runs the cursor protocol over the deferred
// schemes: sequential correctness including early stop, then the
// weak-consistency contract under concurrent churn (covering the
// dead-checked resume path where RR uses revocation).
func TestSkipAscendDeferredModes(t *testing.T) {
	for _, mode := range []reclaim.Mode{reclaim.ModeTMHE, reclaim.ModeTMVBR} {
		s := New(Config{Mode: mode, Threads: 4, Window: core.Window{W: 4}, ScanThreshold: 8})
		t.Run(s.Name(), func(t *testing.T) {
			s.Register(0)
			for k := uint64(1); k <= 99; k += 2 {
				s.Insert(0, k)
			}
			var got []uint64
			if err := s.Ascend(0, 0, func(key uint64) bool {
				got = append(got, key)
				return true
			}); err != nil {
				t.Fatalf("Ascend: %v", err)
			}
			if len(got) != 50 || got[0] != 1 || got[49] != 99 {
				t.Fatalf("sequential ascend: %v", got)
			}
			// Early stop must not leak the start handle into the next op.
			count := 0
			if err := s.Ascend(0, 0, func(uint64) bool { count++; return count < 5 }); err != nil {
				t.Fatalf("early-stop Ascend: %v", err)
			}
			if !s.Lookup(0, 1) {
				t.Fatal("lookup broken after early-stopped ascend")
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 1; w <= 3; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					s.Register(tid)
					for i := 0; ; i++ {
						select {
						case <-stop:
							s.Finish(tid)
							return
						default:
						}
						k := uint64((i*2+tid*4)%100) + 100
						s.Insert(tid, k)
						s.Remove(tid, k)
					}
				}(w)
			}
			for round := 0; round < 30; round++ {
				got = got[:0]
				if err := s.Ascend(0, 0, func(key uint64) bool {
					got = append(got, key)
					return true
				}); err != nil {
					t.Fatalf("round %d: Ascend: %v", round, err)
				}
				seen := 0
				lastKey := uint64(0)
				for _, k := range got {
					if k <= lastKey {
						t.Fatalf("round %d: ordering violation at %d", round, k)
					}
					lastKey = k
					if k <= 99 && k%2 == 1 {
						seen++
					}
				}
				if seen != 50 {
					t.Fatalf("round %d: saw %d of 50 stable keys", round, seen)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
