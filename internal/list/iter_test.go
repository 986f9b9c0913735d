package list

import (
	"sync"
	"sync/atomic"
	"testing"

	"hohtx/internal/core"
	"hohtx/internal/obs"
	"hohtx/internal/reclaim"
	"hohtx/internal/stm"
)

func TestAscendSequential(t *testing.T) {
	for _, k := range core.Kinds() {
		l := New(Config{Mode: reclaim.ModeRR, RRKind: k, Threads: 1, Window: core.Window{W: 3}})
		t.Run(l.Name(), func(t *testing.T) {
			l.Register(0)
			for key := uint64(2); key <= 40; key += 2 {
				l.Insert(0, key)
			}
			var got []uint64
			l.Ascend(0, 0, func(key uint64) bool {
				got = append(got, key)
				return true
			})
			if len(got) != 20 {
				t.Fatalf("ascend yielded %d keys, want 20", len(got))
			}
			for i, key := range got {
				if key != uint64(2*(i+1)) {
					t.Fatalf("key[%d] = %d", i, key)
				}
			}
			// From a midpoint.
			got = got[:0]
			l.Ascend(0, 21, func(key uint64) bool {
				got = append(got, key)
				return true
			})
			if len(got) != 10 || got[0] != 22 {
				t.Fatalf("ascend from 21: %v", got)
			}
			// Early stop.
			count := 0
			l.Ascend(0, 0, func(key uint64) bool {
				count++
				return count < 5
			})
			if count != 5 {
				t.Fatalf("early stop delivered %d", count)
			}
			// The early stop must not leak a hold into the next op.
			if !l.Lookup(0, 2) {
				t.Fatal("lookup broken after early-stopped ascend")
			}
		})
	}
}

func TestAscendHTMMode(t *testing.T) {
	l := New(Config{Mode: reclaim.ModeHTM, Threads: 1})
	l.Register(0)
	for key := uint64(1); key <= 10; key++ {
		l.Insert(0, key)
	}
	var n int
	l.Ascend(0, 0, func(uint64) bool { n++; return true })
	if n != 10 {
		t.Fatalf("HTM ascend yielded %d", n)
	}
}

// TestAscendEveryMode: every list mode scans — the precise pair, the
// seam's deferred schemes and the list-local REF and ER — through windows
// of four, while another thread removes the node the first window holds.
// Each key present throughout is delivered once, ascending; a bounded scan
// stops at its limit; the scan leaves no hold behind; and the books balance
// once both threads have drained.
func TestAscendEveryMode(t *testing.T) {
	for _, mode := range []Mode{reclaim.ModeRR, reclaim.ModeHTM, reclaim.ModeTMHP, reclaim.ModeTMHE, reclaim.ModeTMVBR, ModeREF, ModeER} {
		l := New(Config{Mode: mode, Threads: 2, Window: core.Window{W: 4, NoScatter: true}})
		t.Run(l.Name(), func(t *testing.T) {
			l.Register(0)
			l.Register(1)
			for k := uint64(1); k <= 40; k++ {
				l.Insert(0, k)
			}
			var got []uint64
			if err := l.Ascend(0, 0, func(k uint64) bool {
				if k == 2 && !l.Remove(1, 4) {
					t.Fatal("Remove(4) failed")
				}
				got = append(got, k)
				return true
			}); err != nil {
				t.Fatalf("Ascend: %v", err)
			}
			// Key 4, removed mid-scan, may or may not be delivered.
			var rest []uint64
			for i, k := range got {
				if i > 0 && k <= got[i-1] {
					t.Fatalf("delivered %v: not ascending", got)
				}
				if k != 4 {
					rest = append(rest, k)
				}
			}
			if len(rest) != 39 || rest[0] != 1 || rest[2] != 3 || rest[3] != 5 || rest[38] != 40 {
				t.Fatalf("delivered %v: want 1..40, 4 optional", got)
			}
			got = got[:0]
			if err := l.AscendN(0, 11, 5, func(k uint64) bool { got = append(got, k); return true }); err != nil || len(got) != 5 || got[0] != 11 || got[4] != 15 {
				t.Fatalf("AscendN(11, 5) = %v, %v: want 11..15", got, err)
			}
			if !l.Lookup(0, 3) || l.Lookup(0, 4) {
				t.Fatal("point operations broken after the scans")
			}
			for range 2 {
				l.Finish(0)
				l.Finish(1)
			}
			if err := l.Books(39).Check(true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAscendPanicReleasesHold is the hold-leak regression: a consumer
// that panics mid-scan must not leave the iterator's reservation behind.
// Before the deferred release, the leaked hold made the tid's next
// operation resume from the stale reserved node — Lookup of a smaller
// present key returned false — and the node stayed pinned in the
// reservation table.
func TestAscendPanicReleasesHold(t *testing.T) {
	l := New(Config{Mode: reclaim.ModeRR, RRKind: core.KindV, Threads: 2,
		Window: core.Window{W: 2, NoScatter: true}})
	l.Register(0)
	l.Register(1)
	baseline := l.LiveNodes()
	for k := uint64(1); k <= 20; k++ {
		l.Insert(0, k)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the consumer panic to propagate")
			}
		}()
		_ = l.Ascend(0, 0, func(k uint64) bool {
			if k == 6 {
				panic("consumer bug")
			}
			return true
		})
	}()
	// The genuinely failing property under the bug: the same tid's next
	// operation must start from a clean position, not the stale hold.
	if !l.Lookup(0, 1) {
		t.Fatal("Lookup(1) false after panicking scan: reservation hold leaked")
	}
	// And the held node must be reclaimable (the ISSUE's wording): every
	// key removes cleanly and memory returns to the baseline, precisely.
	for k := uint64(1); k <= 20; k++ {
		if !l.Remove(1, k) {
			t.Fatalf("Remove(%d) failed after panicking scan", k)
		}
	}
	if live := l.LiveNodes(); live != baseline {
		t.Fatalf("live nodes = %d after removing all, want baseline %d", live, baseline)
	}
}

// TestAscendRenavigation pins the cursor-revocation path: removing the
// node the iterator reserved forces the next window to re-navigate from
// the head by key, which the ascend_renavigations histogram counts.
func TestAscendRenavigation(t *testing.T) {
	dom := obs.NewDomain(obs.DomainConfig{Name: "iter-test", Threads: 2, SampleShift: 0})
	l := New(Config{Mode: reclaim.ModeRR, RRKind: core.KindV, Threads: 2,
		Window: core.Window{W: 2, NoScatter: true}, Obs: dom})
	l.Register(0)
	l.Register(1)
	for k := uint64(1); k <= 30; k++ {
		l.Insert(0, k)
	}
	// With W=2 and no scatter the first window batches keys 1,2 and lands
	// its hold on the node holding key 2. Removing that node from another
	// tid revokes the cursor mid-scan.
	var got []uint64
	if err := l.Ascend(0, 0, func(k uint64) bool {
		if k == 1 {
			if !l.Remove(1, 2) {
				t.Fatal("Remove(2) failed")
			}
		}
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatalf("Ascend: %v", err)
	}
	// Key 2 was batched (and so delivered) before its removal; everything
	// else was present throughout. Exactly-once, ascending, complete.
	if len(got) != 30 {
		t.Fatalf("delivered %d keys, want 30: %v", len(got), got)
	}
	for i, k := range got {
		if k != uint64(i+1) {
			t.Fatalf("got[%d] = %d, want %d", i, k, i+1)
		}
	}
	snap := dom.Snapshot()
	if h, ok := snap.Hist(obs.HistAscendRenavs); !ok || h.Sum < 1 {
		t.Fatalf("ascend_renavigations sum = %+v, want >= 1", h)
	}
	if h, ok := snap.Hist(obs.HistAscendWindows); !ok || h.Count != 1 || h.Sum < 2 {
		t.Fatalf("ascend_windows = %+v, want one scan of >= 2 windows", h)
	}
}

// TestAscendConcurrent checks the weak-consistency contract: keys present
// for the whole iteration are delivered exactly once, in order, while
// concurrent churn removes and reinserts other keys (with immediate
// reclamation putting their nodes back into circulation).
func TestAscendConcurrent(t *testing.T) {
	const stable = 50 // odd keys 1..99 stay put
	l := New(Config{Mode: reclaim.ModeRR, RRKind: core.KindV, Threads: 4, Window: core.Window{W: 2}})
	l.Register(0)
	for k := uint64(1); k <= 99; k += 2 {
		l.Insert(0, k)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 1; w <= 3; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			l.Register(tid)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64((i*2+tid*4)%100) + 100 // churn keys 100..199
				l.Insert(tid, k)
				l.Remove(tid, k)
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
			l.Ascend(0, 0, collect)
		} else {
			// The same scan as a chain of bounded pulls, the way the
			// serving layer's merge runs it.
			for from, full := uint64(0), true; full; {
				n := len(got)
				l.AscendN(0, from, 7, collect)
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

// boundedList builds keys 1..keys on tid 0 of a two-thread RR-V list.
func boundedList(w, keys, capacity int) *List {
	l := New(Config{Mode: reclaim.ModeRR, RRKind: core.KindV, Threads: 2,
		Window: core.Window{W: w, NoScatter: true}, Profile: stm.Profile{Capacity: capacity}})
	l.Register(0)
	l.Register(1)
	for k := 1; k <= keys; k++ {
		l.Insert(0, uint64(k))
	}
	return l
}

// TestAscendWindowShape: a scan window's walk to its resume key and its
// collect share one step budget, as a point operation's windows do. At W=4
// from key 3 the first window passes 1 and 2 and collects 3 and 4, so a
// bounded scan of four keys takes two windows, not one.
func TestAscendWindowShape(t *testing.T) {
	l := boundedList(4, 30, 0)
	c0 := l.TMStats().Commits
	var got []uint64
	if err := l.AscendN(0, 3, 4, func(k uint64) bool { got = append(got, k); return true }); err != nil {
		t.Fatal(err)
	}
	if n := l.TMStats().Commits - c0; n != 2 || len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Fatalf("AscendN(3, 4) delivered %v in %d windows, want 3..6 in 2", got, n)
	}
}

// stopAt is the consumer that ends a scan itself, at its k-th key.
func stopAt(k int) func(uint64) bool {
	return func(uint64) bool { k--; return k > 0 }
}

// TestAscendBounded pins what telling the cursor its bound buys over
// stopping it from fn at the same key: the same keys, one transaction fewer
// (the final window drops the hold itself), no hold left behind — also when
// fn panics before the bound — and nothing read past the last key.
func TestAscendBounded(t *testing.T) {
	const keys, k = 40, 5
	commits := func(scan func(l *List, fn func(uint64) bool) error, fn func(uint64) bool) (uint64, []uint64) {
		l := boundedList(2, keys, 0)
		var got []uint64
		c0 := l.TMStats().Commits
		if err := scan(l, func(key uint64) bool { got = append(got, key); return fn(key) }); err != nil {
			t.Fatalf("scan: %v", err)
		}
		return l.TMStats().Commits - c0, got
	}
	stopped, gotStopped := commits(func(l *List, fn func(uint64) bool) error { return l.Ascend(0, 1, fn) }, stopAt(k))
	bounded, gotBounded := commits(func(l *List, fn func(uint64) bool) error { return l.AscendN(0, 1, k, fn) },
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
		l := boundedList(2, 20, 0)
		baseline := l.LiveNodes() - 20
		func() {
			defer func() {
				if (recover() != nil) != (tc.panicAt != 0) {
					t.Fatalf("%s: consumer panic expected at key %d", tc.name, tc.panicAt)
				}
			}()
			_ = l.AscendN(0, 1, k, func(key uint64) bool {
				if key == tc.panicAt {
					panic("consumer bug")
				}
				return true
			})
		}()
		if !l.Lookup(0, 1) {
			t.Fatalf("%s: Lookup(1) false after the scan: its hold outlived it", tc.name)
		}
		for key := uint64(1); key <= 20; key++ {
			if !l.Remove(1, key) {
				t.Fatalf("%s: Remove(%d) failed after the scan", tc.name, key)
			}
		}
		if live := l.LiveNodes(); live != baseline {
			t.Fatalf("%s: live nodes = %d after removing all, want baseline %d", tc.name, live, baseline)
		}
	}

	// What a scan reads, measured as the smallest transaction capacity it
	// runs under without a capacity abort (one window covers the scan here).
	// Bounded at k keys among forty it reads less than a whole scan of a list
	// that holds those k keys and nothing else — which has no key past the
	// k-th to visit, and still reads the k-th node's link to learn so.
	footprint := func(keys int, scan func(l *List)) int {
		for c := 1; c < 4*keys+16; c++ {
			l := boundedList(64, keys, c)
			a0 := l.TMStats().Aborts[stm.CauseCapacity]
			scan(l)
			if l.TMStats().Aborts[stm.CauseCapacity] == a0 {
				return c
			}
		}
		t.Fatal("scan aborts on capacity under every capacity tried")
		return 0
	}
	all := func(uint64) bool { return true }
	atK := footprint(keys, func(l *List) { _ = l.AscendN(0, 1, k, all) })
	whole := footprint(k, func(l *List) { _ = l.Ascend(0, 1, all) })
	byFn := footprint(keys, func(l *List) { _ = l.Ascend(0, 1, stopAt(k)) })
	if atK >= whole || byFn <= whole {
		t.Fatalf("cells read: %d bounded at %d of %d keys, %d by a whole scan of %d keys, %d stopped by fn at %d; want them in that order",
			atK, k, keys, whole, k, byFn, k)
	}
}
