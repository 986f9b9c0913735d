package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"hohtx/internal/stm"
)

// testCfg keeps tables small so hash collisions actually occur in the
// relaxed property tests.
func testCfg(threads int) Config {
	return Config{Threads: threads, TableBits: 6, Assoc: 4}
}

// impl is one kind's reservation beside the kind it was built from, which
// holds its label and strictness.
type impl struct {
	Kind
	Reservation
}

func allImpls(threads int) []impl {
	var out []impl
	for _, k := range Kinds() {
		out = append(out, impl{k, New(k, testCfg(threads))})
	}
	return out
}

// distinctHashRefs returns two references that hash to different slots of
// a 1<<6 table (needed to test that unrelated revokes don't disturb strict
// reservations, and usually don't disturb relaxed ones).
func distinctHashRefs() (uint64, uint64) {
	a := uint64(1)
	for b := uint64(2); ; b++ {
		if hashRef(a, 63) != hashRef(b, 63) {
			return a, b
		}
	}
}

// TestMix64Pinned holds hashRef to the values its own splitmix64 finalizer
// gave before the mix moved into Mix64.
func TestMix64Pinned(t *testing.T) {
	for ref, want := range map[uint64]uint64{
		1: 0x5692161d100b05e5, 2: 0xdbd238973a2b148a, 3: 0x1e535eede31428f0,
		0x123456789: 0x5189f682b434caf2, 1<<63 | 5: 0x4c90c93f432d261a,
	} {
		if got := hashRef(ref, ^uint64(0)); got != want || Mix64(ref) != want || hashRef(ref, 63) != want&63 {
			t.Errorf("hashRef(%#x) = %#x, Mix64 %#x; want %#x", ref, got, Mix64(ref), want)
		}
	}
}

// collidingHashRefs returns two distinct references that share a slot of a
// 1<<6 table: the shape under which stale per-thread state can validate
// against another reservation's metadata.
func collidingHashRefs() (uint64, uint64) {
	a := uint64(1)
	for b := uint64(2); ; b++ {
		if hashRef(a, 63) == hashRef(b, 63) {
			return a, b
		}
	}
}

func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kinds() {
		name := k.String()
		if name == "" || seen[name] {
			t.Fatalf("bad or duplicate kind name %q", name)
		}
		seen[name] = true
	}
	if NumKinds != 6 {
		t.Fatalf("paper defines 6 kinds, NumKinds = %d", NumKinds)
	}
	if got := NumKinds.String(); got != "RR-?6" {
		t.Errorf("an unknown kind's label = %q", got)
	}
}

// TestSixKindsFourTypes: RR-DM is RR-SA with one array and RR-XO is RR-SO
// with one table, whatever Assoc says (testCfg's is 4).
func TestSixKindsFourTypes(t *testing.T) {
	shape := func(r Reservation) string {
		switch r := r.(type) {
		case *SA:
			return fmt.Sprintf("SA/%d", len(r.arrs))
		case *SO:
			return fmt.Sprintf("SO/%d", len(r.tables))
		}
		return fmt.Sprintf("%T", r)
	}
	want := map[Kind]string{
		KindFA: "*core.FA", KindDM: "SA/1", KindSA: "SA/4",
		KindXO: "SO/1", KindSO: "SO/4", KindV: "*core.V",
	}
	for k, w := range want {
		if got := shape(New(k, testCfg(2))); got != w {
			t.Errorf("%v: built %s, want %s", k, got, w)
		}
	}
}

func TestStrictFlag(t *testing.T) {
	want := map[Kind]bool{
		KindFA: true, KindDM: true, KindSA: true,
		KindXO: false, KindSO: false, KindV: false,
	}
	for k, strict := range want {
		if got := k.Strict(); got != strict {
			t.Errorf("%v.Strict() = %v, want %v", k, got, strict)
		}
	}
}

func TestReserveGetRelease(t *testing.T) {
	for _, r := range allImpls(2) {
		t.Run(r.Kind.String(), func(t *testing.T) {
			rt := stm.NewRuntime(stm.Profile{})
			r.Register(0)
			if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return r.Get(tx, 0) }); got != 0 {
				t.Fatalf("initial Get = %d, want 0", got)
			}
			rt.Atomic(func(tx *stm.Tx) { r.Reserve(tx, 0, 7) })
			if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return r.Get(tx, 0) }); got != 7 {
				t.Fatalf("Get after Reserve = %d, want 7", got)
			}
			rt.Atomic(func(tx *stm.Tx) { r.Release(tx, 0) })
			if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return r.Get(tx, 0) }); got != 0 {
				t.Fatalf("Get after Release = %d, want 0", got)
			}
		})
	}
}

// TestAbortedAttemptLeavesGetIntact is the hazard the relaxed.go header
// describes: a Reserve (or Release) in an attempt that aborts must not
// leak into the thread's R_t. The refs collide under the hash, so a leaked
// R_t = b would validate against the metadata a's reservation published
// and Get would return a reference the thread never committed to holding.
func TestAbortedAttemptLeavesGetIntact(t *testing.T) {
	a, b := collidingHashRefs()
	for _, r := range allImpls(2) {
		t.Run(r.Kind.String(), func(t *testing.T) {
			rt := stm.NewRuntime(stm.Profile{})
			r.Register(0)
			rt.Atomic(func(tx *stm.Tx) { r.Reserve(tx, 0, a) })
			for name, doomed := range map[string]func(tx *stm.Tx){
				"reserve": func(tx *stm.Tx) { r.Reserve(tx, 0, b) },
				"release": func(tx *stm.Tx) { r.Release(tx, 0) },
			} {
				first := true
				got := stm.Run(rt, func(tx *stm.Tx) uint64 {
					if first {
						first = false
						doomed(tx)
						tx.Restart()
					}
					return r.Get(tx, 0)
				})
				if got != a {
					t.Fatalf("Get after an aborted %s = %d, want the committed %d", name, got, a)
				}
			}
		})
	}
}

// TestReleaseReserveGetInOneTx: the reservation state a transaction reads
// back is its own, write by write, before any of it commits.
func TestReleaseReserveGetInOneTx(t *testing.T) {
	a, b := collidingHashRefs()
	for _, r := range allImpls(2) {
		t.Run(r.Kind.String(), func(t *testing.T) {
			rt := stm.NewRuntime(stm.Profile{})
			r.Register(0)
			rt.Atomic(func(tx *stm.Tx) { r.Reserve(tx, 0, a) })
			rt.Atomic(func(tx *stm.Tx) {
				r.Release(tx, 0)
				if got := r.Get(tx, 0); got != 0 {
					t.Errorf("Get after Release in the same transaction = %d, want 0", got)
				}
				r.Reserve(tx, 0, b)
				if got := r.Get(tx, 0); got != b {
					t.Errorf("Get after Release, Reserve in the same transaction = %d, want %d", got, b)
				}
			})
			if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return r.Get(tx, 0) }); got != b {
				t.Fatalf("Get in the next transaction = %d, want %d", got, b)
			}
		})
	}
}

// TestRevokeClearsEveryThread is the core correctness property: after
// Revoke(r) commits, no thread's Get may return r.
func TestRevokeClearsEveryThread(t *testing.T) {
	const threads = 8
	for _, r := range allImpls(threads) {
		t.Run(r.Kind.String(), func(t *testing.T) {
			rt := stm.NewRuntime(stm.Profile{})
			const ref = 42
			for tid := 0; tid < threads; tid++ {
				r.Register(tid)
				tid := tid
				rt.Atomic(func(tx *stm.Tx) { r.Reserve(tx, tid, ref) })
			}
			rt.Atomic(func(tx *stm.Tx) { r.Revoke(tx, ref) })
			for tid := 0; tid < threads; tid++ {
				tid := tid
				if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return r.Get(tx, tid) }); got != 0 {
					t.Fatalf("thread %d still gets %d after revoke", tid, got)
				}
			}
		})
	}
}

// TestUnrelatedRevokeStrict: strict schemes must be unaffected by revokes
// of different references, even hash-colliding ones.
func TestUnrelatedRevokeStrict(t *testing.T) {
	for _, k := range []Kind{KindFA, KindDM, KindSA} {
		r := New(k, testCfg(2))
		t.Run(k.String(), func(t *testing.T) {
			rt := stm.NewRuntime(stm.Profile{})
			r.Register(0)
			rt.Atomic(func(tx *stm.Tx) { r.Reserve(tx, 0, 5) })
			// Revoke many other refs, including ones likely to collide.
			for other := uint64(6); other < 200; other++ {
				other := other
				rt.Atomic(func(tx *stm.Tx) { r.Revoke(tx, other) })
			}
			if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return r.Get(tx, 0) }); got != 5 {
				t.Fatalf("strict reservation lost to unrelated revoke: Get = %d", got)
			}
		})
	}
}

// TestUnrelatedRevokeRelaxedNonColliding: relaxed schemes keep reservations
// across revokes of references that do NOT collide under the hash.
func TestUnrelatedRevokeRelaxedNonColliding(t *testing.T) {
	a, b := distinctHashRefs()
	for _, k := range []Kind{KindXO, KindSO, KindV} {
		r := New(k, testCfg(2))
		t.Run(k.String(), func(t *testing.T) {
			rt := stm.NewRuntime(stm.Profile{})
			r.Register(0)
			rt.Atomic(func(tx *stm.Tx) { r.Reserve(tx, 0, a) })
			rt.Atomic(func(tx *stm.Tx) { r.Revoke(tx, b) })
			if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return r.Get(tx, 0) }); got != a {
				t.Fatalf("non-colliding revoke disturbed reservation: Get = %d", got)
			}
		})
	}
}

// TestXOSecondReserverDisplaces documents the paper's progress note: when a
// second thread reserves the same reference under RR-XO, the first thread's
// Get must return nil (mistaking it for a revoke), never a wrong value.
func TestXOSecondReserverDisplaces(t *testing.T) {
	r := New(KindXO, testCfg(2))
	rt := stm.NewRuntime(stm.Profile{})
	r.Register(0)
	r.Register(1)
	rt.Atomic(func(tx *stm.Tx) { r.Reserve(tx, 0, 9) })
	rt.Atomic(func(tx *stm.Tx) { r.Reserve(tx, 1, 9) })
	if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return r.Get(tx, 0) }); got != 0 {
		t.Fatalf("displaced owner Get = %d, want 0", got)
	}
	if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return r.Get(tx, 1) }); got != 9 {
		t.Fatalf("current owner Get = %d, want 9", got)
	}
}

// TestVSharedReservations: RR-V allows any number of concurrent holders of
// the same reference.
func TestVSharedReservations(t *testing.T) {
	const threads = 4
	r := New(KindV, testCfg(threads))
	rt := stm.NewRuntime(stm.Profile{})
	for tid := 0; tid < threads; tid++ {
		tid := tid
		rt.Atomic(func(tx *stm.Tx) { r.Reserve(tx, tid, 9) })
	}
	for tid := 0; tid < threads; tid++ {
		tid := tid
		if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return r.Get(tx, tid) }); got != 9 {
			t.Fatalf("thread %d Get = %d, want 9 (shared reservation)", tid, got)
		}
	}
}

// specModel is the Listing 1 reference model: refs(t) with one element.
type specModel struct {
	refs []uint64 // 0 = empty set (single-reservation specialization)
}

// opCode drives the property-test script interpreter.
type opCode struct {
	Tid  uint8
	Kind uint8 // 0 reserve, 1 release, 2 get, 3 revoke
	Ref  uint8 // small domain so collisions and self-revokes happen
}

// TestQuickSpecConformance runs random single-threaded scripts against each
// implementation and the model. Strict implementations must match the model
// exactly; relaxed ones may substitute 0 for a model hit (one-sided error)
// but must never return a reference the model says is absent.
func TestQuickSpecConformance(t *testing.T) {
	const threads = 4
	for _, k := range Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			f := func(script []opCode) bool {
				r := New(k, testCfg(threads))
				rt := stm.NewRuntime(stm.Profile{})
				model := specModel{refs: make([]uint64, threads)}
				for tid := 0; tid < threads; tid++ {
					r.Register(tid)
				}
				for _, op := range script {
					tid := int(op.Tid) % threads
					ref := uint64(op.Ref%16) + 1
					switch op.Kind % 4 {
					case 0: // reserve
						rt.Atomic(func(tx *stm.Tx) { r.Reserve(tx, tid, ref) })
						model.refs[tid] = ref
					case 1: // release
						rt.Atomic(func(tx *stm.Tx) { r.Release(tx, tid) })
						model.refs[tid] = 0
					case 2: // get
						got := stm.Run(rt, func(tx *stm.Tx) uint64 { return r.Get(tx, tid) })
						want := model.refs[tid]
						if k.Strict() {
							if got != want {
								t.Logf("%s: strict Get = %d, model %d", k, got, want)
								return false
							}
						} else {
							if got != 0 && got != want {
								t.Logf("%s: relaxed Get = %d, model %d", k, got, want)
								return false
							}
						}
					case 3: // revoke
						rt.Atomic(func(tx *stm.Tx) { r.Revoke(tx, ref) })
						for i := range model.refs {
							if model.refs[i] == ref {
								model.refs[i] = 0
							}
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentRevocationSafety checks the property the whole paper hangs
// on, under real concurrency: once a Revoke(r) has committed and r is
// marked dead, no Get may return r unless r was re-reserved afterwards.
// Refs here are revoked at most once and never re-reserved after
// revocation is initiated, so any Get returning a dead ref is a violation.
func TestConcurrentRevocationSafety(t *testing.T) {
	const threads = 4
	const refsPerThread = 80
	for _, k := range Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			r := New(k, testCfg(threads+1))
			rt := stm.NewRuntime(stm.Profile{})
			// dead[ref] is set (non-transactionally) BEFORE the revoke
			// transaction runs; so "dead at Get-commit time" is a superset
			// of "revoked". A Get returning ref requires the revoke to not
			// yet have committed — but if dead was set before the Get
			// transaction STARTED and the revoke committed before the
			// reserve... we avoid ambiguity by having each owner reserve a
			// ref exactly once, then repeatedly Get until it observes 0.
			var dead sync.Map
			var wg sync.WaitGroup
			violations := make(chan string, threads)
			toRevoke := make(chan uint64, threads*refsPerThread)

			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					r.Register(tid)
					for i := 0; i < refsPerThread; i++ {
						ref := uint64(tid*refsPerThread+i) + 1
						rt.Atomic(func(tx *stm.Tx) { r.Reserve(tx, tid, ref) })
						// Announce so the revoker can target it.
						toRevoke <- ref
						for {
							got := stm.Run(rt, func(tx *stm.Tx) uint64 { return r.Get(tx, tid) })
							if got == 0 {
								break
							}
							if got != ref {
								violations <- "got foreign ref"
								return
							}
							if _, isDead := dead.Load(got); isDead {
								// dead is set before the revoke tx begins,
								// so this can be a false alarm only if the
								// revoke hasn't committed yet; spin once
								// more and require 0 soon after.
								got2 := stm.Run(rt, func(tx *stm.Tx) uint64 { return r.Get(tx, tid) })
								_ = got2
							}
						}
					}
				}(tid)
			}

			wg.Add(1)
			go func() {
				defer wg.Done()
				r.Register(threads)
				for i := 0; i < threads*refsPerThread; i++ {
					ref := <-toRevoke
					dead.Store(ref, true)
					rt.Atomic(func(tx *stm.Tx) { r.Revoke(tx, ref) })
					// Post-commit: any subsequent Get(ref) is a violation,
					// checked by the final sweep below.
				}
			}()
			wg.Wait()
			close(violations)
			for v := range violations {
				t.Fatal(v)
			}
			// Final sweep: everything was revoked; all Gets must be 0.
			for tid := 0; tid < threads; tid++ {
				tid := tid
				if got := stm.Run(rt, func(tx *stm.Tx) uint64 { return r.Get(tx, tid) }); got != 0 {
					t.Fatalf("thread %d holds %d after all refs revoked", tid, got)
				}
			}
		})
	}
}

func TestScatterBounds(t *testing.T) {
	rt := stm.NewRuntime(stm.Profile{})
	rt.Atomic(func(tx *stm.Tx) {
		seen := map[int]bool{}
		for i := 0; i < 1000; i++ {
			v := Scatter(tx, 8)
			if v < 1 || v > 8 {
				t.Fatalf("Scatter out of range: %d", v)
			}
			seen[v] = true
		}
		if len(seen) < 4 {
			t.Fatalf("Scatter not spreading: saw only %d distinct values", len(seen))
		}
		if Scatter(tx, 1) != 1 || Scatter(tx, 0) != 1 {
			t.Fatal("Scatter(…, <=1) must be 1")
		}
	})
}

func TestWindowPolicies(t *testing.T) {
	rt := stm.NewRuntime(stm.Profile{})
	rt.Atomic(func(tx *stm.Tx) {
		unb := Window{W: 0}
		if !unb.Unbounded() || unb.Next() < 1<<30 || unb.First(tx) < 1<<30 {
			t.Error("unbounded window should never cut")
		}
		fixed := Window{W: 8, NoScatter: true}
		if fixed.First(tx) != 8 || fixed.Next() != 8 {
			t.Error("NoScatter window must use W for all windows")
		}
		scat := Window{W: 8}
		if v := scat.First(tx); v < 1 || v > 8 {
			t.Errorf("scattered first window = %d", v)
		}
	})
}

func TestHashRefSpreads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buckets := make([]int, 64)
	for i := 0; i < 64*64; i++ {
		buckets[hashRef(rng.Uint64(), 63)]++
	}
	for b, n := range buckets {
		if n == 0 {
			t.Fatalf("bucket %d empty after 4096 hashes", b)
		}
	}
}
