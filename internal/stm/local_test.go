package stm

import "testing"

// Local's contract (cell.go): read-own-writes inside an attempt, applied
// exactly once when the transaction commits, no trace of an attempt that
// did not, and no shared state touched either way.

func TestLocalReadOwnWritesLastWins(t *testing.T) {
	rt := newTestRuntime()
	var a, b Local
	rt.Atomic(func(tx *Tx) {
		if got := a.Load(tx); got != 0 {
			t.Errorf("zero Local loads %d", got)
		}
		a.Store(tx, 1)
		b.Store(tx, 10)
		if a.Load(tx) != 1 || b.Load(tx) != 10 {
			t.Errorf("stores not visible in the same attempt: a=%d b=%d", a.Load(tx), b.Load(tx))
		}
		a.Store(tx, 2)
		if a.Load(tx) != 2 {
			t.Errorf("second store not visible: a=%d", a.Load(tx))
		}
		if a.v != 0 || b.v != 0 {
			t.Errorf("store reached memory before commit: a=%d b=%d", a.v, b.v)
		}
	})
	if a.v != 2 || b.v != 10 {
		t.Fatalf("after commit a=%d b=%d, want 2/10", a.v, b.v)
	}
	if got := Run(rt, func(tx *Tx) uint64 { return a.Load(tx) }); got != 2 {
		t.Fatalf("next transaction loads %d, want 2", got)
	}
}

// TestLocalAbortedAttemptLeavesNoTrace drives one attempt into each abort
// cause and lets the retry commit a different value: the failed attempt's
// store must be neither applied nor visible to the retry.
func TestLocalAbortedAttemptLeavesNoTrace(t *testing.T) {
	// Each case's hazard runs on the first attempt only, after the Local
	// store and a read of w, and must make that attempt abort with cause.
	cases := []struct {
		name   string
		cause  AbortCause
		hazard func(rt *Runtime, tx *Tx, w, w2 *Word)
	}{
		{"restart", CauseExplicit, func(_ *Runtime, tx *Tx, _, _ *Word) { tx.Restart() }},
		{"read-conflict", CauseReadConflict, func(rt *Runtime, tx *Tx, w, w2 *Word) {
			overwrite(rt, w, w2)
			w2.Load(tx) // newer than the snapshot: extension fails on w
		}},
		{"validation", CauseValidation, func(rt *Runtime, tx *Tx, w, w2 *Word) {
			overwrite(rt, w, w2)
			var sink Word
			sink.Store(tx, 1) // a writer revalidates w at commit
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := newTestRuntime()
			var l Local
			var w, w2 Word
			rt.Atomic(func(tx *Tx) { l.Store(tx, 7) })

			attempts := 0
			rt.Atomic(func(tx *Tx) {
				attempts++
				if got := l.Load(tx); got != 7 {
					t.Errorf("attempt %d loads %d, want the committed 7", attempts, got)
				}
				w.Load(tx)
				l.Store(tx, uint64(100+attempts))
				if attempts == 1 {
					tc.hazard(rt, tx, &w, &w2)
				}
			})
			if attempts != 2 {
				t.Fatalf("ran %d attempts, want 2", attempts)
			}
			if got := rt.Stats().Aborts[tc.cause]; got != 1 {
				t.Fatalf("%v aborts = %d, want 1 (%v)", tc.cause, got, rt.Stats())
			}
			if l.v != 102 {
				t.Fatalf("Local = %d after the retry committed, want 102", l.v)
			}
		})
	}
}

// overwrite commits a write to both words from another goroutine (Atomic
// must not nest) and waits for it.
func overwrite(rt *Runtime, w, w2 *Word) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Atomic(func(tx *Tx) {
			w.Store(tx, w.Load(tx)+1)
			w2.Store(tx, w2.Load(tx)+1)
		})
	}()
	<-done
}

func TestLocalUserPanicDiscards(t *testing.T) {
	rt := newTestRuntime()
	var l Local
	rt.Atomic(func(tx *Tx) { l.Store(tx, 7) })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("user panic did not propagate")
			}
		}()
		rt.Atomic(func(tx *Tx) {
			l.Store(tx, 8)
			panic("boom")
		})
	}()
	if l.v != 7 {
		t.Fatalf("Local = %d after a panicking transaction, want 7", l.v)
	}
	// The pooled Tx must not carry the dead store into its next use.
	rt.Atomic(func(tx *Tx) {})
	if l.v != 7 {
		t.Fatalf("Local = %d after the next transaction, want 7", l.v)
	}
}

// TestLocalCapacityAndSerial: pending Local stores occupy capacity like
// Word writes (the ninth entry of any kind overflows a capacity of 8), and
// the serial re-execution applies the stores exactly once.
func TestLocalCapacityAndSerial(t *testing.T) {
	run := func(loads, stores int) (Stats, []Local) {
		rt := NewRuntime(Profile{Capacity: 8, MaxAttempts: 4})
		words := make([]Word, loads)
		locals := make([]Local, stores)
		rt.Atomic(func(tx *Tx) {
			for i := range words {
				words[i].Load(tx)
			}
			for i := range locals {
				locals[i].Store(tx, locals[i].Load(tx)+1)
				locals[i].Store(tx, locals[i].Load(tx)+1) // same entry again
			}
		})
		return rt.Stats(), locals
	}

	st, locals := run(4, 4)
	if st.Aborts[CauseCapacity] != 0 || st.SerialCommits != 0 {
		t.Fatalf("8 entries overflowed a capacity of 8: %v", st)
	}
	for i := range locals {
		if locals[i].v != 2 {
			t.Fatalf("locals[%d] = %d, want 2", i, locals[i].v)
		}
	}

	for _, shape := range [][2]int{{4, 5}, {0, 9}} {
		st, locals = run(shape[0], shape[1])
		if st.Aborts[CauseCapacity] != 1 || st.SerialCommits != 1 {
			t.Fatalf("%d loads + %d Local stores: want one capacity abort and a serial commit, got %v",
				shape[0], shape[1], st)
		}
		for i := range locals {
			if locals[i].v != 2 {
				t.Fatalf("locals[%d] = %d after the serial commit, want 2 (applied exactly once)", i, locals[i].v)
			}
		}
	}
}

// TestLocalOnlyTxIsReadOnly is the property the reservation layer buys
// with Local: a transaction that reads Words and writes only Locals takes
// the read-only commit — it neither moves the clock (so no other
// transaction revalidates because of it) nor counts as a write commit.
func TestLocalOnlyTxIsReadOnly(t *testing.T) {
	// One case, under the name it has always run as: the clock is TL2's GV1.
	t.Run("gv1", func(t *testing.T) {
		rt := NewRuntime(Profile{})
		var w Word
		var l Local
		rt.Atomic(func(tx *Tx) { w.Store(tx, 5) })
		before, fence, clock := rt.Stats(), rt.VersionFence(), rt.now()

		const n = 100
		for i := 0; i < n; i++ {
			rt.Atomic(func(tx *Tx) { l.Store(tx, l.Load(tx)+w.Load(tx)) })
		}
		after := rt.Stats()
		if l.v != 5*n {
			t.Fatalf("Local = %d, want %d", l.v, 5*n)
		}
		if after.Commits-before.Commits != n {
			t.Fatalf("commits moved by %d, want %d", after.Commits-before.Commits, n)
		}
		if after.WriteCommits != before.WriteCommits || after.ReadOnlyCommits()-before.ReadOnlyCommits() != n {
			t.Fatalf("Local-only transactions counted as writers: before %v, after %v", before, after)
		}
		if rt.VersionFence() != fence || rt.now() != clock {
			t.Fatalf("clock moved: fence %d -> %d, clock %d -> %d", fence, rt.VersionFence(), clock, rt.now())
		}

		rt.Atomic(func(tx *Tx) { w.Store(tx, 6) })
		if got := rt.Stats().WriteCommits - before.WriteCommits; got != 1 {
			t.Fatalf("a Word store moved WriteCommits by %d, want 1", got)
		}
	})
}
