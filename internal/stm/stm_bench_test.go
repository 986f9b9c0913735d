package stm

import (
	"sync/atomic"
	"testing"
)

// Micro-benchmarks for the TM primitives themselves; the macro views are
// at the repository root (one per paper figure).

func BenchmarkReadOnlyTx(b *testing.B) {
	rt := NewRuntime(Profile{})
	cells := make([]Word, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Atomic(func(tx *Tx) {
			for j := range cells {
				_ = cells[j].Load(tx)
			}
		})
	}
}

func BenchmarkWriteTx(b *testing.B) {
	rt := NewRuntime(Profile{})
	cells := make([]Word, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Atomic(func(tx *Tx) {
			for j := range cells {
				cells[j].Store(tx, uint64(i))
			}
		})
	}
}

func BenchmarkReadWriteTx(b *testing.B) {
	rt := NewRuntime(Profile{})
	cells := make([]Word, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Atomic(func(tx *Tx) {
			s := uint64(0)
			for j := range cells {
				s += cells[j].Load(tx)
			}
			cells[i%8].Store(tx, s)
		})
	}
}

func BenchmarkContendedCounter(b *testing.B) {
	rt := NewRuntime(Profile{})
	var w Word
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rt.Atomic(func(tx *Tx) {
				w.Store(tx, w.Load(tx)+1)
			})
		}
	})
}

func BenchmarkEarlyReleaseTraversal(b *testing.B) {
	rt := NewRuntime(Profile{})
	cells := make([]Word, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Atomic(func(tx *Tx) {
			for j := range cells {
				_ = cells[j].Load(tx)
				if j > 8 {
					tx.ForgetReadsBefore(tx.ReadMark() - 8)
				}
			}
		})
	}
}

// Contended parallel benchmarks. The single-goroutine benchmarks above
// cannot see the commit path's shared cache lines (the global clock and the
// serial-fallback lock); these can. Run them with -cpu 2 (or higher); see
// EXPERIMENTS.md.

// benchCells is a cache-line-padded group of cells so that disjoint
// parallel writers conflict only on commit-path metadata, never on data.
type benchCells struct {
	cells [4]Word
	_     [64]byte
}

// benchGoroutineID hands out distinct indices to RunParallel workers.
var benchGoroutineID atomic.Uint64

func BenchmarkParallelReadOnlyTx(b *testing.B) {
	rt := NewRuntime(Profile{})
	cells := make([]Word, 16)
	for i := range cells {
		cells[i].Init(uint64(i))
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rt.Atomic(func(tx *Tx) {
				for j := range cells {
					_ = cells[j].Load(tx)
				}
			})
		}
	})
}

// BenchmarkParallelWriteTx is the headline commit-path benchmark: every
// worker writes its own padded cell group, so the only shared state is the
// clock and the commit lock.
func BenchmarkParallelWriteTx(b *testing.B) {
	rt := NewRuntime(Profile{})
	groups := make([]benchCells, 64)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		g := &groups[benchGoroutineID.Add(1)%uint64(len(groups))]
		i := uint64(0)
		for pb.Next() {
			i++
			rt.Atomic(func(tx *Tx) {
				for j := range g.cells {
					g.cells[j].Store(tx, i)
				}
			})
		}
	})
}

func BenchmarkParallelReadWriteTx(b *testing.B) {
	rt := NewRuntime(Profile{})
	shared := make([]Word, 16)
	groups := make([]benchCells, 64)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		g := &groups[benchGoroutineID.Add(1)%uint64(len(groups))]
		i := uint64(0)
		for pb.Next() {
			i++
			rt.Atomic(func(tx *Tx) {
				s := uint64(0)
				for j := 0; j < 8; j++ {
					s += shared[(i+uint64(j))%16].Load(tx)
				}
				g.cells[0].Store(tx, s+i)
			})
		}
	})
}

// BenchmarkParallelWindowTx models a hand-over-hand window walk: a chain
// traversal with early release plus a private write, with an occasional
// write to the shared chain so readers meet writers' clock ticks.
func BenchmarkParallelWindowTx(b *testing.B) {
	rt := NewRuntime(Profile{})
	chain := make([]Word, 256)
	groups := make([]benchCells, 64)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		id := benchGoroutineID.Add(1)
		g := &groups[id%uint64(len(groups))]
		i := uint64(0)
		for pb.Next() {
			i++
			start := int((id*31 + i*7) % uint64(len(chain)-16))
			rt.Atomic(func(tx *Tx) {
				for j := 0; j < 16; j++ {
					_ = chain[start+j].Load(tx)
					if j > 4 {
						tx.ForgetReadsBefore(tx.ReadMark() - 4)
					}
				}
				if i%64 == 0 {
					chain[start].Store(tx, i)
				}
				g.cells[0].Store(tx, i)
			})
		}
	})
}

// BenchmarkParallelSerialPressure measures the revocation/re-arm cycle:
// most transactions commit speculatively, but a steady trickle escalates to
// serial mode and must revoke the reader bias.
func BenchmarkParallelSerialPressure(b *testing.B) {
	rt := NewRuntime(Profile{MaxAttempts: 2})
	groups := make([]benchCells, 64)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		g := &groups[benchGoroutineID.Add(1)%uint64(len(groups))]
		i := uint64(0)
		for pb.Next() {
			i++
			if i%128 == 0 {
				rt.Atomic(func(tx *Tx) {
					if !tx.Serial() {
						tx.Restart()
					}
					g.cells[0].Store(tx, i)
				})
			} else {
				rt.Atomic(func(tx *Tx) {
					g.cells[0].Store(tx, i)
				})
			}
		}
	})
}
