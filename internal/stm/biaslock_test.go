package stm

import (
	"sync"
	"testing"
)

// TestBravoFastPathClaimsSlot checks the common case: with reader bias
// armed and no serial writers, a speculative commit claims a table slot and
// never touches the underlying rwlock.
func TestBravoFastPathClaimsSlot(t *testing.T) {
	rt := newTestRuntime()
	var w Word
	for i := 0; i < 50; i++ {
		rt.Atomic(func(tx *Tx) { w.Store(tx, uint64(i)) })
	}
	st := rt.Stats()
	if st.CommitSlowPath != 0 {
		t.Fatalf("uncontended commits took the slow path %d times", st.CommitSlowPath)
	}
	if st.BiasRevocations != 0 {
		t.Fatalf("no serial writer ran, yet %d revocations", st.BiasRevocations)
	}
}

// TestBravoRevocationAndRearm forces serial commits and checks the
// writer-side protocol: the first serial writer revokes the bias (counted
// in stats), and later speculative commits still succeed — either through
// the rwlock or after a slow-path reader re-arms the bias.
func TestBravoRevocationAndRearm(t *testing.T) {
	rt := NewRuntime(Profile{Capacity: 4, MaxAttempts: 2})
	cells := make([]Word, 16)
	// Capacity overflow -> serial mode -> revocation.
	rt.Atomic(func(tx *Tx) {
		for i := range cells {
			cells[i].Store(tx, 1)
		}
	})
	st := rt.Stats()
	if st.SerialCommits == 0 {
		t.Fatal("expected a serial commit")
	}
	if st.BiasRevocations == 0 {
		t.Fatal("serial writer did not revoke the reader bias")
	}
	// Speculative commits must keep working after revocation.
	for i := 0; i < 50; i++ {
		rt.Atomic(func(tx *Tx) { cells[0].Store(tx, cells[0].Load(tx)+1) })
	}
	if got := cells[0].Raw(); got != 51 {
		t.Fatalf("cells[0] = %d, want 51", got)
	}
}

// TestBravoSerialSpeculativeHammer interleaves serial and fast-path writers
// on shared cells; any lost update means the revocation/drain handshake let
// a serial writer overlap a speculative commit.
func TestBravoSerialSpeculativeHammer(t *testing.T) {
	// One case, under the name it has always run as: the clock is TL2's GV1.
	t.Run("gv1", func(t *testing.T) {
		rt := NewRuntime(Profile{Capacity: 6, MaxAttempts: 3})
		var counter Word
		big := make([]Word, 24)
		const workers = 6
		const perWorker = 400
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					if i%8 == 0 {
						// Serial (capacity overflow): bump counter and
						// sweep the big array.
						rt.Atomic(func(tx *Tx) {
							counter.Store(tx, counter.Load(tx)+1)
							for j := range big {
								big[j].Store(tx, big[j].Load(tx)+1)
							}
						})
					} else {
						rt.Atomic(func(tx *Tx) {
							counter.Store(tx, counter.Load(tx)+1)
						})
					}
				}
			}(g)
		}
		wg.Wait()
		if got := counter.Raw(); got != workers*perWorker {
			t.Fatalf("counter = %d, want %d", got, workers*perWorker)
		}
		want := uint64(workers * perWorker / 8)
		for j := range big {
			if got := big[j].Raw(); got != want {
				t.Fatalf("big[%d] = %d, want %d", j, got, want)
			}
		}
		st := rt.Stats()
		if st.BiasRevocations == 0 {
			t.Errorf("expected revocations, stats %v", st)
		}
	})
}
