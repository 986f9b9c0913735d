package stm

import (
	"sync"
	"testing"
)

func newTestRuntime() *Runtime {
	return NewRuntime(Profile{})
}

func TestWordBasics(t *testing.T) {
	rt := newTestRuntime()
	var w Word
	w.Init(7)
	got := Run(rt, func(tx *Tx) uint64 { return w.Load(tx) })
	if got != 7 {
		t.Fatalf("Load = %d, want 7", got)
	}
	rt.Atomic(func(tx *Tx) { w.Store(tx, 42) })
	if w.Raw() != 42 {
		t.Fatalf("Raw = %d, want 42", w.Raw())
	}
}

func TestReadOwnWrites(t *testing.T) {
	rt := newTestRuntime()
	var w Word
	rt.Atomic(func(tx *Tx) {
		w.Store(tx, 5)
		if got := w.Load(tx); got != 5 {
			t.Errorf("read-own-write = %d, want 5", got)
		}
		w.Store(tx, 6)
		if got := w.Load(tx); got != 6 {
			t.Errorf("after second store = %d, want 6", got)
		}
	})
	if w.Raw() != 6 {
		t.Fatalf("committed value = %d, want 6", w.Raw())
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	rt := newTestRuntime()
	var w Word
	w.Init(1)
	tries := 0
	rt.Atomic(func(tx *Tx) {
		tries++
		w.Store(tx, 99)
		if tries == 1 {
			tx.Restart()
		}
	})
	if tries != 2 {
		t.Fatalf("tries = %d, want 2", tries)
	}
	if w.Raw() != 99 {
		t.Fatalf("final = %d, want 99", w.Raw())
	}
}

// TestOnCommitOnAbort: a commit hook runs exactly once, with the arguments
// it was registered with, and an abort hook once per aborted attempt.
func TestOnCommitOnAbort(t *testing.T) {
	rt := newTestRuntime()
	var w Word
	var committed, aborted []uint64
	onCommit := func(a, b, c uint64) { committed = append(committed, a, b, c) }
	onAbort := func(a, _, _ uint64) { aborted = append(aborted, a) }
	tries := uint64(0)
	rt.Atomic(func(tx *Tx) {
		tries++
		w.Store(tx, tries)
		tx.OnCommitCall(onCommit, tries, 7, 9)
		tx.OnAbortCall(onAbort, tries, 0, 0)
		if tries < 3 {
			tx.Restart()
		}
	})
	if len(committed) != 3 || committed[0] != 3 || committed[1] != 7 || committed[2] != 9 {
		t.Errorf("commit hooks ran with %v, want once with [3 7 9]", committed)
	}
	if len(aborted) != 2 || aborted[0] != 1 || aborted[1] != 2 {
		t.Errorf("abort hooks ran for attempts %v, want [1 2]", aborted)
	}
}

// TestCounterSerializability hammers a single transactional counter from
// many goroutines; any lost update means the commit protocol is broken.
func TestCounterSerializability(t *testing.T) {
	rt := newTestRuntime()
	var w Word
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rt.Atomic(func(tx *Tx) {
					w.Store(tx, w.Load(tx)+1)
				})
			}
		}()
	}
	wg.Wait()
	if got := w.Raw(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestSnapshotConsistency maintains the invariant a+b == 100 under
// concurrent transfers and checks that read-only transactions never observe
// a torn state (opacity at the whole-transaction level).
func TestSnapshotConsistency(t *testing.T) {
	rt := newTestRuntime()
	var a, b Word
	a.Init(100)
	const iters = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				amt := uint64(i%3 + 1)
				rt.Atomic(func(tx *Tx) {
					av := a.Load(tx)
					if av >= amt {
						a.Store(tx, av-amt)
						b.Store(tx, b.Load(tx)+amt)
					} else {
						a.Store(tx, av+b.Load(tx))
						b.Store(tx, 0)
					}
				})
			}
		}(uint64(g))
	}

	var violations int
	var rwg sync.WaitGroup
	for g := 0; g < 4; g++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sum := Run(rt, func(tx *Tx) uint64 {
					return a.Load(tx) + b.Load(tx)
				})
				if sum != 100 {
					violations++
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	if violations > 0 {
		t.Fatalf("observed %d torn snapshots (a+b != 100)", violations)
	}
	if got := a.Raw() + b.Raw(); got != 100 {
		t.Fatalf("final sum = %d, want 100", got)
	}
}

// TestWriteSkewPrevented checks full serializability (not just snapshot
// isolation): two transactions that each read both cells and write one must
// not both commit against the same snapshot.
func TestWriteSkewPrevented(t *testing.T) {
	rt := newTestRuntime()
	var x, y Word
	const iters = 3000
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rt.Atomic(func(tx *Tx) {
					// Invariant target: x+y <= 1 given both start 0 and
					// each tx sets its own cell only if the other is 0.
					xv, yv := x.Load(tx), y.Load(tx)
					if id == 0 {
						if yv == 0 {
							x.Store(tx, 1)
						} else {
							x.Store(tx, 0)
						}
					} else {
						if xv == 0 {
							y.Store(tx, 1)
						} else {
							y.Store(tx, 0)
						}
					}
					_ = xv
				})
				if x.Raw() == 1 && y.Raw() == 1 {
					// Racy observation: confirm transactionally.
					bad := Run(rt, func(tx *Tx) bool {
						return x.Load(tx) == 1 && y.Load(tx) == 1
					})
					if bad {
						t.Error("write skew: x == y == 1")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCapacityFallsBackToSerial(t *testing.T) {
	rt := NewRuntime(Profile{Capacity: 8, MaxAttempts: 4})
	words := make([]Word, 64)
	rt.Atomic(func(tx *Tx) {
		for i := range words {
			words[i].Store(tx, uint64(i))
		}
	})
	for i := range words {
		if words[i].Raw() != uint64(i) {
			t.Fatalf("words[%d] = %d", i, words[i].Raw())
		}
	}
	st := rt.Stats()
	if st.Aborts[CauseCapacity] == 0 {
		t.Error("expected at least one capacity abort")
	}
	if st.SerialCommits == 0 {
		t.Error("expected the transaction to commit serially")
	}
}

func TestSerialModeStillIsolated(t *testing.T) {
	// A serial transaction's writes must not be visible to concurrent
	// speculative readers until its commit point.
	rt := NewRuntime(Profile{Capacity: 4, MaxAttempts: 2})
	cells := make([]Word, 16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var torn int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			vals := Run(rt, func(tx *Tx) [2]uint64 {
				return [2]uint64{cells[0].Load(tx), cells[15].Load(tx)}
			})
			if vals[0] != vals[1] {
				torn++
				return
			}
		}
	}()
	for round := uint64(1); round <= 500; round++ {
		rt.Atomic(func(tx *Tx) {
			for i := range cells {
				cells[i].Store(tx, round)
			}
		})
	}
	close(stop)
	wg.Wait()
	if torn > 0 {
		t.Fatalf("reader observed %d torn serial commits", torn)
	}
}

func TestStatsAccounting(t *testing.T) {
	rt := newTestRuntime()
	var w Word
	for i := 0; i < 10; i++ {
		rt.Atomic(func(tx *Tx) { w.Store(tx, uint64(i)) })
	}
	st := rt.Stats()
	if st.Commits != 10 {
		t.Fatalf("commits = %d, want 10", st.Commits)
	}
	rt.ResetStats()
	if rt.Stats().Commits != 0 {
		t.Fatal("ResetStats did not zero commits")
	}
}

func TestRun2(t *testing.T) {
	rt := newTestRuntime()
	var w Word
	w.Init(3)
	a, b := Run2(rt, func(tx *Tx) (uint64, bool) {
		v := w.Load(tx)
		return v, v == 3
	})
	if a != 3 || !b {
		t.Fatalf("Run2 = (%d,%v), want (3,true)", a, b)
	}
}

func TestUserPanicPropagates(t *testing.T) {
	rt := newTestRuntime()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("user panic did not propagate")
		}
		// The runtime must remain usable after a propagated panic.
		var w Word
		rt.Atomic(func(tx *Tx) { w.Store(tx, 1) })
		if w.Raw() != 1 {
			t.Fatal("runtime unusable after user panic")
		}
	}()
	rt.Atomic(func(tx *Tx) { panic("boom") })
}

func TestAbortCauseStrings(t *testing.T) {
	for c := CauseNone; c < numCauses; c++ {
		if c.String() == "unknown" {
			t.Errorf("cause %d has no name", c)
		}
	}
	if AbortCause(200).String() != "unknown" {
		t.Error("out-of-range cause should be unknown")
	}
}
