package core

import (
	"sync"
	"testing"
	"testing/quick"

	"hohtx/internal/stm"
)

func multiImpls(threads, k int) []MultiReservation {
	return []MultiReservation{
		NewMultiFA(testCfg(threads), k),
		NewMultiV(testCfg(threads), k),
	}
}

func TestMultiReserveGetRelease(t *testing.T) {
	for _, m := range multiImpls(2, 3) {
		t.Run(m.Name(), func(t *testing.T) {
			rt := stm.NewRuntime(stm.Profile{})
			m.Register(0)
			rt.Atomic(func(tx *stm.Tx) {
				m.Reserve(tx, 0, 10)
				m.Reserve(tx, 0, 20)
				m.Reserve(tx, 0, 30)
			})
			for _, ref := range []uint64{10, 20, 30} {
				ref := ref
				if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return m.Get(tx, 0, ref) }); got != ref {
					t.Fatalf("Get(%d) = %d", ref, got)
				}
			}
			if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return m.Get(tx, 0, 99) }); got != 0 {
				t.Fatal("Get of never-reserved ref succeeded")
			}
			rt.Atomic(func(tx *stm.Tx) { m.ReleaseRef(tx, 0, 20) })
			if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return m.Get(tx, 0, 20) }); got != 0 {
				t.Fatal("released ref still held")
			}
			if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return m.Get(tx, 0, 10) }); got != 10 {
				t.Fatal("release disturbed sibling reservation")
			}
			rt.Atomic(func(tx *stm.Tx) { m.ReleaseAll(tx, 0) })
			if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return m.Get(tx, 0, 10) }); got != 0 {
				t.Fatal("ReleaseAll left a reservation")
			}
		})
	}
}

// TestMultiAbortedAttemptAndOwnWrites is the set form of the two
// single-reservation properties (core_test.go): an aborted attempt's
// Reserve and ReleaseRef leave the set as committed, and a transaction
// reads back its own ReleaseRef and Reserve.
func TestMultiAbortedAttemptAndOwnWrites(t *testing.T) {
	a, b := collidingHashRefs()
	for _, m := range multiImpls(2, 2) {
		t.Run(m.Name(), func(t *testing.T) {
			rt := stm.NewRuntime(stm.Profile{})
			m.Register(0)
			rt.Atomic(func(tx *stm.Tx) { m.Reserve(tx, 0, a) })

			first := true
			rt.Atomic(func(tx *stm.Tx) {
				if first {
					first = false
					m.ReleaseRef(tx, 0, a)
					m.Reserve(tx, 0, b)
					tx.Restart()
				}
				if gotA, gotB := m.Get(tx, 0, a), m.Get(tx, 0, b); gotA != a || gotB != 0 {
					t.Errorf("after an aborted attempt Get(a) = %d, Get(b) = %d, want %d and 0", gotA, gotB, a)
				}
			})

			rt.Atomic(func(tx *stm.Tx) {
				m.ReleaseRef(tx, 0, a)
				m.Reserve(tx, 0, b)
				if gotA, gotB := m.Get(tx, 0, a), m.Get(tx, 0, b); gotA != 0 || gotB != b {
					t.Errorf("in the writing transaction Get(a) = %d, Get(b) = %d, want 0 and %d", gotA, gotB, b)
				}
			})
			if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return m.Get(tx, 0, b) }); got != b {
				t.Fatalf("Get(b) in the next transaction = %d, want %d", got, b)
			}
		})
	}
}

func TestMultiCapacityPanics(t *testing.T) {
	for _, m := range multiImpls(1, 2) {
		t.Run(m.Name(), func(t *testing.T) {
			rt := stm.NewRuntime(stm.Profile{})
			m.Register(0)
			rt.Atomic(func(tx *stm.Tx) {
				m.Reserve(tx, 0, 1)
				m.Reserve(tx, 0, 2)
				m.Reserve(tx, 0, 1) // idempotent, must not panic
			})
			defer func() {
				if recover() == nil {
					t.Fatal("overflowing the set did not panic")
				}
			}()
			rt.Atomic(func(tx *stm.Tx) { m.Reserve(tx, 0, 3) })
		})
	}
}

func TestMultiRevokeClearsEveryThread(t *testing.T) {
	const threads = 4
	for _, m := range multiImpls(threads, 3) {
		t.Run(m.Name(), func(t *testing.T) {
			rt := stm.NewRuntime(stm.Profile{})
			for tid := 0; tid < threads; tid++ {
				m.Register(tid)
				tid := tid
				rt.Atomic(func(tx *stm.Tx) {
					m.Reserve(tx, tid, 7)
					m.Reserve(tx, tid, uint64(100+tid))
				})
			}
			rt.Atomic(func(tx *stm.Tx) { m.Revoke(tx, 7) })
			for tid := 0; tid < threads; tid++ {
				tid := tid
				if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return m.Get(tx, tid, 7) }); got != 0 {
					t.Fatalf("thread %d still holds revoked ref", tid)
				}
				if m.Strict() {
					want := uint64(100 + tid)
					if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return m.Get(tx, tid, want) }); got != want {
						t.Fatalf("strict: revoke disturbed unrelated reservation %d", want)
					}
				}
			}
		})
	}
}

// TestMultiQuickSpec drives random scripts against the Listing 1 set model.
func TestMultiQuickSpec(t *testing.T) {
	const threads = 3
	const capacity = 4
	for idx := range multiImpls(threads, capacity) {
		idx := idx
		name := multiImpls(threads, capacity)[idx].Name()
		t.Run(name, func(t *testing.T) {
			f := func(script []opCode) bool {
				m := multiImpls(threads, capacity)[idx]
				rt := stm.NewRuntime(stm.Profile{})
				model := make([]map[uint64]bool, threads)
				for i := range model {
					model[i] = map[uint64]bool{}
					m.Register(i)
				}
				for _, op := range script {
					tid := int(op.Tid) % threads
					ref := uint64(op.Ref%8) + 1
					switch op.Kind % 4 {
					case 0: // reserve (skip if model set full: impl would panic)
						if len(model[tid]) >= capacity && !model[tid][ref] {
							continue
						}
						rt.Atomic(func(tx *stm.Tx) { m.Reserve(tx, tid, ref) })
						model[tid][ref] = true
					case 1: // release
						rt.Atomic(func(tx *stm.Tx) { m.ReleaseRef(tx, tid, ref) })
						delete(model[tid], ref)
					case 2: // get
						got := stm.Run(rt, func(tx *stm.Tx) uint64 { return m.Get(tx, tid, ref) })
						if m.Strict() {
							want := uint64(0)
							if model[tid][ref] {
								want = ref
							}
							if got != want {
								return false
							}
						} else if got != 0 && !model[tid][ref] {
							return false
						}
					case 3: // revoke
						rt.Atomic(func(tx *stm.Tx) { m.Revoke(tx, ref) })
						for i := range model {
							delete(model[i], ref)
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMultiConcurrent hammers reserve/get/release with a concurrent
// revoker; after everything is revoked, no Get may succeed.
func TestMultiConcurrent(t *testing.T) {
	const threads = 3
	for _, m := range multiImpls(threads+1, 4) {
		t.Run(m.Name(), func(t *testing.T) {
			rt := stm.NewRuntime(stm.Profile{})
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					m.Register(tid)
					for i := 0; i < 400; i++ {
						a := uint64(tid*1000+i) + 1
						b := a + 500000
						rt.Atomic(func(tx *stm.Tx) {
							m.Reserve(tx, tid, a)
							m.Reserve(tx, tid, b)
						})
						rt.Atomic(func(tx *stm.Tx) {
							_ = m.Get(tx, tid, a)
							_ = m.Get(tx, tid, b)
						})
						rt.Atomic(func(tx *stm.Tx) { m.ReleaseAll(tx, tid) })
					}
				}(tid)
			}
			m.Register(threads)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 2000; i++ {
					ref := uint64(i%3000) + 1
					rt.Atomic(func(tx *stm.Tx) { m.Revoke(tx, ref) })
				}
			}()
			wg.Wait()
			<-done
		})
	}
}
