package main

import (
	"bufio"
	"context"
	"sort"

	"hohtx/internal/arena"
	"hohtx/internal/bench"
	"hohtx/internal/core"
	"hohtx/internal/reclaim"
	"hohtx/internal/serve"
	"hohtx/internal/stm"
)

// Unit-cost probes: what one call into a layer costs on this host, alone
// and uncontended, through the layer's public constructor. The traced run's
// counters say how many such calls an operation makes; the product is what
// a change to that layer can hope to save.

// probeIters is sized so that a probe takes a few milliseconds.
const probeIters = 50_000

// timeLoop returns the median over five repetitions of ns per call of fn.
func timeLoop(fn func()) float64 {
	var reps []float64
	for r := 0; r < 5; r++ {
		t0 := nowNs()
		for i := 0; i < probeIters; i++ {
			fn()
		}
		reps = append(reps, float64(nowNs()-t0)/probeIters)
	}
	sort.Float64s(reps)
	return reps[len(reps)/2]
}

// clockNs is the cost of one clock read: what elapses between the two
// reads around a timed call besides the call, which the sampled
// per-operation timings must give back.
func clockNs() float64 {
	return timeLoop(func() { _ = nowNs() - nowNs() }) / 2
}

// replay is an endless reader over a script, like serve's alloc tests use.
type replay struct {
	data []byte
	off  int
}

func (r *replay) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

type probeNode struct{ key, next stm.Word }

func runProbes() map[string]float64 {
	out := map[string]float64{}

	sc := serve.NewLineScanner(bufio.NewReaderSize(&replay{data: []byte("GET 123456\nSET 77\nDEL 4096\n")}, 4<<10))
	out["wire.scan_ns_per_line"] = timeLoop(func() { _, _ = sc.Line() })

	// An uncontended lease: acquire with affinity, run nothing, release.
	if sh, err := bench.BuildSharded(bench.FamilySingly, bench.VariantSpec{Name: "RR-V"}, 2, 1); err == nil {
		pool := serve.NewPool(sh.Shard(0), serve.PoolConfig{Slots: 2})
		h := pool.Handle()
		nop := func(int) {}
		out["pool.do_ns"] = timeLoop(func() { _ = h.Do(context.Background(), nop) })
		pool.Close()
	}

	rt := stm.NewRuntime(stm.Profile{})
	var words [4]stm.Word
	empty := func(*stm.Tx) {}
	ro := func(tx *stm.Tx) {
		for i := range words {
			sink += words[i].Load(tx)
		}
	}
	rw := func(tx *stm.Tx) {
		words[0].Store(tx, words[0].Load(tx)+1)
		words[1].Store(tx, words[1].Load(tx)+1)
	}
	emptyNs := timeLoop(func() { rt.AtomicT(0, empty) })
	out["stm.ro_tx_ns"] = timeLoop(func() { rt.AtomicT(0, ro) }) // 4 loads, no writes
	out["stm.rw_tx_ns"] = timeLoop(func() { rt.AtomicT(0, rw) }) // 2 loads, 2 stores, commit

	// One window transaction reads back its reservation and leaves a new
	// one; a remover revokes. Both net of the empty transaction.
	rr := core.New(core.KindV, core.Config{Threads: 2})
	rr.Register(0)
	const ref = 4242
	hop := func(tx *stm.Tx) {
		sink += rr.Get(tx, 0)
		rr.Reserve(tx, 0, ref)
	}
	revoke := func(tx *stm.Tx) { rr.Revoke(tx, ref) }
	out["core.reserve_get_ns"] = timeLoop(func() { rt.AtomicT(0, hop) }) - emptyNs
	out["core.revoke_ns"] = timeLoop(func() { rt.AtomicT(0, revoke) }) - emptyNs

	ar := arena.New[probeNode](arena.Config{Threads: 2})
	allocFree := timeLoop(func() { ar.Free(0, ar.Alloc(0)) })
	out["arena.alloc_free_ns"] = allocFree

	// Retire through hazard pointers, scans and deferred frees amortised in,
	// net of the allocation and free every scheme pays.
	hp := reclaim.NewHazardPointers(reclaim.HPConfig{Threads: 2, Free: func(tid int, h arena.Handle) { ar.Free(tid, h) }})
	var stamp uint64
	out["reclaim.retire_ns"] = timeLoop(func() {
		stamp++
		hp.Retire(0, ar.Alloc(0), stamp)
	}) - allocFree
	hp.Flush(0, stamp)
	return out
}
