package reclaim

import (
	"testing"

	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/obs"
	"hohtx/internal/stm"
)

// Seam conformance: every Link implementation, driven through the same
// scripts. What a structure may assume of its link is exactly what these
// tests pin.

type linkNode struct{ dead, val stm.Word }

// rig is one link over a real arena and runtime, with the cell-version
// retirement every structure installs.
type rig struct {
	rt   *stm.Runtime
	ar   *arena.Arena[linkNode]
	link Link
}

const rigThreads = 3

func (r *rig) nodes(k core.Kind) Nodes {
	return Nodes{
		Config:  Config{Threads: rigThreads, ScanThreshold: 4, RRKind: k},
		Dead:    func(h arena.Handle) *stm.Word { return &r.ar.At(h).dead },
		Live:    r.ar.Live,
		Free:    r.ar.Free,
		Runtime: r.rt, Guard: GuardFor(r.ar),
	}
}

func newRig(guard bool, sink func(arena.GuardEvent)) *rig {
	r := &rig{
		rt: stm.NewRuntime(stm.Profile{}),
		ar: arena.New[linkNode](arena.Config{Threads: rigThreads, Guard: guard, AccessCheck: sink}),
	}
	r.ar.SetRetire(func(_ int, n *linkNode) {
		n.dead.Retire(r.rt.VersionFence())
		n.val.Retire(r.rt.VersionFence())
	})
	r.ar.SetPoison(func(n *linkNode) {
		n.dead.Poison(arena.PoisonWord)
		n.val.Poison(arena.PoisonWord)
	})
	return r
}

// allLinks builds one rig per implementation: the six reservation kinds,
// the whole-operation link, every table mode, and the two schemes that
// reach the deferred link only through NewDeferred.
func allLinks() []*rig {
	var out []*rig
	for _, k := range core.Kinds() {
		r := newRig(false, nil)
		r.link = New(ModeRR, r.nodes(k))
		out = append(out, r)
	}
	for m := ModeHTM; int(m) < len(modes); m++ {
		if m.Generic() {
			r := newRig(false, nil)
			r.link = New(m, r.nodes(0))
			out = append(out, r)
		}
	}
	ep := newRig(false, nil)
	ep.link = NewDeferred("Epoch", NewEpochs(rigThreads, 4, ep.ar.Free), ep.nodes(0))
	lk := newRig(false, nil)
	lk.link = NewDeferred("Leak", NewLeak(rigThreads), lk.nodes(0))
	out = append(out, ep, lk)
	for _, r := range out {
		for tid := 0; tid < rigThreads; tid++ {
			r.link.Register(tid)
		}
	}
	return out
}

// holders are the links that can carry a position between transactions.
func holders() []*rig {
	var out []*rig
	for _, r := range allLinks() {
		if !r.link.Traits().WholeOp {
			out = append(out, r)
		}
	}
	return out
}

// alloc allocates a node the way a structure does: inside a transaction,
// announced to the link.
func (r *rig) alloc(tid int) arena.Handle {
	var h arena.Handle
	r.rt.AtomicT(tid, func(tx *stm.Tx) {
		h = r.ar.Alloc(tid)
		r.link.Born(tx, tid, h)
		r.ar.At(h).dead.Store(tx, 0)
	})
	return h
}

type hold struct {
	h    arena.Handle
	word uint64
	held bool
}

func (r *rig) resume(tid int) hold {
	var out hold
	r.rt.AtomicT(tid, func(tx *stm.Tx) { out.h, out.word, out.held = r.link.Resume(tx, tid) })
	return out
}

// rehold runs one window: resume, then hold h with word.
func (r *rig) rehold(tid int, h arena.Handle, word uint64) {
	r.rt.AtomicT(tid, func(tx *stm.Tx) {
		_, _, held := r.link.Resume(tx, tid)
		r.link.Hold(tx, tid, held, h, word)
	})
}

func (r *rig) drop(tid int) {
	r.rt.AtomicT(tid, func(tx *stm.Tx) {
		_, _, held := r.link.Resume(tx, tid)
		r.link.Drop(tx, tid, held)
	})
}

func (r *rig) unlink(tid int, h arena.Handle, stamp uint64) {
	r.rt.AtomicT(tid, func(tx *stm.Tx) { r.link.Unlinked(tx, tid, h, stamp) })
}

// books checks the invariant every Stats snapshot must satisfy.
func (r *rig) books(t *testing.T, when string) Stats {
	t.Helper()
	st := r.link.Stats()
	if st.Retired-st.Freed != st.Deferred {
		t.Fatalf("%s: retired %d - freed %d != deferred %d", when, st.Retired, st.Freed, st.Deferred)
	}
	return st
}

func TestLinkHoldResumeDrop(t *testing.T) {
	for _, r := range holders() {
		t.Run(r.link.Name(), func(t *testing.T) {
			if got := r.resume(0); got.held {
				t.Fatalf("fresh thread resumes held: %+v", got)
			}
			h1, h2 := r.alloc(0), r.alloc(0)
			r.rehold(0, h1, 7)
			if got := r.resume(0); got != (hold{h1, 7, true}) {
				t.Fatalf("resume after hold = %+v, want {%v 7 true}", got, h1)
			}
			if got := r.resume(1); got.held {
				t.Fatalf("another thread sees the hold: %+v", got)
			}
			r.rehold(0, h2, 0) // hand over: releases h1, word back to zero
			if got := r.resume(0); got != (hold{h2, 0, true}) {
				t.Fatalf("resume after hand-over = %+v, want {%v 0 true}", got, h2)
			}
			r.drop(0)
			if got := r.resume(0); got.held {
				t.Fatalf("resume after drop = %+v, want not held", got)
			}
		})
	}
}

// TestLinkAbortedAttemptLeavesHoldIntact drives one attempt that re-holds
// (or drops) into an abort; the retry, and the next transaction, must still
// find the previously committed hold, word included.
func TestLinkAbortedAttemptLeavesHoldIntact(t *testing.T) {
	restart := func(_ *rig, tx *stm.Tx, _ *stm.Word) { tx.Restart() }
	conflict := func(r *rig, tx *stm.Tx, w *stm.Word) {
		w.Load(tx)
		done := make(chan struct{})
		go func() { // Atomic must not nest
			defer close(done)
			r.rt.Atomic(func(tx *stm.Tx) { w.Store(tx, w.Load(tx)+1) })
		}()
		<-done
		var fresh stm.Word
		r.rt.TickVersionFence()
		fresh.Retire(r.rt.VersionFence())
		fresh.Load(tx) // newer than the snapshot: extension fails on w
	}
	for _, r := range holders() {
		for name, hazard := range map[string]func(*rig, *stm.Tx, *stm.Word){"restart": restart, "read-conflict": conflict} {
			for _, what := range []string{"hold", "drop"} {
				t.Run(r.link.Name()+"/"+name+"/"+what, func(t *testing.T) {
					h1, h2 := r.alloc(0), r.alloc(0)
					r.rehold(0, h1, 3)
					w := &r.ar.At(r.alloc(1)).val
					attempts := 0
					r.rt.AtomicT(0, func(tx *stm.Tx) {
						attempts++
						h, word, held := r.link.Resume(tx, 0)
						if got := (hold{h, word, held}); got != (hold{h1, 3, true}) {
							t.Errorf("attempt %d resumes %+v, want {%v 3 true}", attempts, got, h1)
						}
						if attempts > 1 {
							return
						}
						if what == "hold" {
							r.link.Hold(tx, 0, held, h2, 9)
						} else {
							r.link.Drop(tx, 0, held)
						}
						hazard(r, tx, w)
					})
					if attempts != 2 {
						t.Fatalf("ran %d attempts, want 2", attempts)
					}
					if got := r.resume(0); got != (hold{h1, 3, true}) {
						t.Fatalf("resume after the aborted %s = %+v, want {%v 3 true}", what, got, h1)
					}
					r.drop(0)
				})
			}
		}
	}
}

// TestLinkUnlinkedKillsHolds: once another thread's Unlinked(h) commits,
// the holder's next Resume is not held — and h's memory is not reused under
// a pinning scheme while the holder still publishes it, nor survives the
// unlinking commit under a precise link.
func TestLinkUnlinkedKillsHolds(t *testing.T) {
	for _, r := range holders() {
		t.Run(r.link.Name(), func(t *testing.T) {
			tr := r.link.Traits()
			h := r.alloc(0)
			r.rehold(0, h, 5)
			r.unlink(1, h, 1)
			r.books(t, "after unlink")
			if !tr.Deferred && r.ar.Live(h) {
				t.Fatal("precise link: node still allocated after the unlinking commit")
			}
			if tr.Pins {
				for round := 0; round < 3; round++ {
					r.link.Finish(1, 2)
					r.link.Finish(2, 2)
				}
				if !r.ar.Live(h) {
					t.Fatal("pinning link freed a node its holder still publishes")
				}
			}
			if got := r.resume(0); got.held {
				t.Fatalf("resume after unlink = %+v, want not held", got)
			}
			r.drop(0)
			for round := 0; round < tr.DrainRounds; round++ {
				for tid := 0; tid < rigThreads; tid++ {
					r.link.Finish(tid, 3)
				}
			}
			st := r.books(t, "after drain")
			if tr.Leak {
				if st.Deferred != 1 || !r.ar.Live(h) {
					t.Fatalf("leak link: deferred %d, live %v; want 1, true", st.Deferred, r.ar.Live(h))
				}
				return
			}
			if st.Deferred != 0 || r.ar.Live(h) {
				t.Fatalf("after drop + %d Finish rounds: deferred %d, live %v; want 0, false",
					tr.DrainRounds, st.Deferred, r.ar.Live(h))
			}
		})
	}
}

// TestLinkFinishDrains: with holds outstanding on some retirees while the
// others are retired around them, Traits().DrainRounds Finish sweeps after
// the holds are gone leave nothing deferred, and the books balance at
// every step.
func TestLinkFinishDrains(t *testing.T) {
	for _, r := range allLinks() {
		t.Run(r.link.Name(), func(t *testing.T) {
			tr := r.link.Traits()
			var hs []arena.Handle
			for i := 0; i < 12; i++ {
				hs = append(hs, r.alloc(i%rigThreads))
			}
			if !tr.WholeOp {
				r.rehold(1, hs[0], 0)
				r.rehold(2, hs[1], 0)
			}
			for i, h := range hs {
				r.unlink(i%rigThreads, h, uint64(i))
				r.books(t, "mid-run")
			}
			if !tr.WholeOp {
				r.drop(1)
				r.drop(2)
			}
			for round := 0; round < tr.DrainRounds; round++ {
				for tid := 0; tid < rigThreads; tid++ {
					r.link.Finish(tid, 20)
					r.books(t, "draining")
				}
			}
			st := r.books(t, "drained")
			if tr.Leak {
				if st.Deferred != uint64(len(hs)) {
					t.Fatalf("leak link deferred %d of %d", st.Deferred, len(hs))
				}
				return
			}
			if st.Deferred != 0 || st.Leftover != 0 {
				t.Fatalf("after %d Finish rounds: deferred %d, leftover %d", tr.DrainRounds, st.Deferred, st.Leftover)
			}
			if tr.Deferred != (st.Retired != 0) {
				t.Fatalf("Traits.Deferred = %v but %d nodes were retired", tr.Deferred, st.Retired)
			}
			if live := r.ar.Stats().Live; live != 0 {
				t.Fatalf("%d nodes still allocated after the drain", live)
			}
		})
	}
}

// TestLinkBornFreesOnAbort: a node allocated by an attempt that aborts goes
// back to the arena.
func TestLinkBornFreesOnAbort(t *testing.T) {
	for _, r := range allLinks() {
		t.Run(r.link.Name(), func(t *testing.T) {
			var hs []arena.Handle
			r.rt.AtomicT(0, func(tx *stm.Tx) {
				h := r.ar.Alloc(0)
				r.link.Born(tx, 0, h)
				hs = append(hs, h)
				if len(hs) == 1 {
					tx.Restart()
				}
			})
			if len(hs) != 2 || r.ar.Live(hs[0]) || !r.ar.Live(hs[1]) {
				t.Fatalf("after abort+commit: handles %v, live %v/%v; want the first freed, the second kept",
					hs, r.ar.Live(hs[0]), r.ar.Live(hs[len(hs)-1]))
			}
		})
	}
}

// TestLinkRevoke: the links that are not Deferred can kill holds on a node
// that stays allocated; the deferred one refuses.
func TestLinkRevoke(t *testing.T) {
	for _, r := range holders() {
		t.Run(r.link.Name(), func(t *testing.T) {
			h := r.alloc(0)
			r.rehold(0, h, 0)
			if r.link.Traits().Deferred {
				defer func() {
					if recover() == nil {
						t.Fatal("deferred link accepted Revoke")
					}
				}()
			}
			r.rt.AtomicT(1, func(tx *stm.Tx) { r.link.Revoke(tx, h) })
			if got := r.resume(0); got.held {
				t.Fatalf("resume after revoke = %+v, want not held", got)
			}
			if !r.ar.Live(h) {
				t.Fatal("Revoke freed the node")
			}
		})
	}
}

// TestVBRResumeOptimisticLoadIsNotReported is the regression test for the
// TMVBR guard false positive. The non-pinning resume reads the held node's
// dead cell between two liveness checks; a free that lands between the
// first check and the load (here: forced, by a Live callback that frees and
// poisons the node after answering true once) makes the load return poison
// from recycled memory. That read is the protocol's optimistic step and the
// second check discards it: Resume must report not held, the transaction
// must commit, and the sanitizer must report nothing. With the load routed
// through Guard.Word the commit reports a use-after-free.
func TestVBRResumeOptimisticLoadIsNotReported(t *testing.T) {
	var events []arena.GuardEvent
	r := newRig(true, func(ev arena.GuardEvent) { events = append(events, ev) })
	var victim arena.Handle
	armed := false
	n := r.nodes(0)
	n.Live = func(h arena.Handle) bool {
		ok := r.ar.Live(h)
		if armed && ok && h == victim {
			armed = false
			r.ar.Free(1, h)
		}
		return ok
	}
	r.link = New(ModeTMVBR, n)
	victim = r.alloc(0)
	r.rehold(0, victim, 0)
	armed = true
	attempts := 0
	var got hold
	r.rt.AtomicT(0, func(tx *stm.Tx) {
		attempts++
		got.h, got.word, got.held = r.link.Resume(tx, 0)
	})
	if armed {
		t.Fatal("the first liveness check never ran")
	}
	if got.held {
		t.Fatalf("resumed on a freed node: %+v", got)
	}
	if attempts != 1 {
		t.Fatalf("resume took %d attempts, want 1 (the optimistic read must not abort the window)", attempts)
	}
	if gs := r.ar.GuardStats(); gs.Violations != 0 || len(events) != 0 {
		t.Fatalf("guard reported %d violations (%v) for the bracketed load", gs.Violations, events)
	}
}

// TestObservedPreciseKeepsDirectV pins that attaching Config.Obs does not
// take RR-V off its direct-call path: the link New builds still holds the
// bare *core.V, which Resume and Hold call through its concrete type.
func TestObservedPreciseKeepsDirectV(t *testing.T) {
	r := newRig(false, nil)
	n := r.nodes(core.KindV)
	n.Obs = obs.NewDomain(obs.DomainConfig{Name: "link-test", Threads: rigThreads})
	p := New(ModeRR, n).(*precise)
	if p.v == nil || p.rr != core.Reservation(p.v) {
		t.Fatalf("observed RR-V link: v = %v, rr is a %T; want the one bare *core.V in both", p.v, p.rr)
	}
}
