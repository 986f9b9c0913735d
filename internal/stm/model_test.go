package stm

import (
	"fmt"
	"testing"
	"testing/quick"
)

// Model-based property test: random single-threaded transaction scripts
// must behave exactly like plain sequential execution over a plain array —
// including aborted attempts leaving no trace and read-own-writes.

// modelCells is the script's address space: the first half are Words, the
// second half Locals. A single-threaded script cannot tell the two apart.
const modelCells = 16

// cell is what a script step needs of either cell type.
type cell interface {
	Load(*Tx) uint64
	Store(*Tx, uint64)
}

// txOp is one step of a scripted transaction.
type txOp struct {
	Cell  uint8 // which of the modelCells cells
	Kind  uint8 // 0 read, 1 write, 2 add-read-to, 3 restart-once
	Value uint8
}

// Each property runs as scripted and with every transaction first writing
// other cells, so that the scripted reads and writes meet the write-set
// filter with most or all of its bits set and an index that grows during the
// attempt. 32 cells fill the first 64-slot table to its bound, so the
// script's first new write grows it between two scripted steps; 300 grow it
// to 1 024 slots before the script starts. A restarted attempt and the next
// transaction reuse the grown table. Each of those runs in a pooled context
// and in an owned one.
func TestQuickSequentialEquivalence(t *testing.T) {
	for _, ballast := range []int{0, 32, 300} {
		t.Run(fmt.Sprintf("ballast=%d", ballast), func(t *testing.T) {
			for _, tid := range ownedAndPooled {
				quickSequentialEquivalence(t, ballast, tid)
			}
		})
	}
}

func quickSequentialEquivalence(t *testing.T, ballast, tid int) {
	f := func(script [][]txOp) bool {
		rt := NewRuntime(Profile{})
		extra := make([]Word, ballast)
		words := make([]Word, modelCells/2)
		locals := make([]Local, modelCells/2)
		cells := make([]cell, 0, modelCells)
		for i := range words {
			cells = append(cells, &words[i])
		}
		for i := range locals {
			cells = append(cells, &locals[i])
		}
		model := make([]uint64, modelCells)

		for _, txScript := range script {
			restarted := false
			shadow := make([]uint64, modelCells)
			rt.AtomicT(tid, func(tx *Tx) {
				copy(shadow, model) // model of this attempt's effects
				for i := range extra {
					extra[i].Store(tx, uint64(i)+1)
				}
				for i := range extra {
					if extra[i].Load(tx) != uint64(i)+1 {
						shadow[0] = ^uint64(0)
						return
					}
				}
				for _, op := range txScript {
					c := int(op.Cell) % modelCells
					switch op.Kind % 4 {
					case 0: // read must observe prior writes in-tx
						if got := cells[c].Load(tx); got != shadow[c] {
							// Fail the property via a detectable marker.
							shadow[0] = ^uint64(0)
							return
						}
					case 1:
						cells[c].Store(tx, uint64(op.Value))
						shadow[c] = uint64(op.Value)
					case 2:
						v := cells[c].Load(tx) + uint64(op.Value)
						cells[c].Store(tx, v)
						shadow[c] = shadow[c] + uint64(op.Value)
					case 3:
						if !restarted {
							restarted = true
							tx.Restart() // all effects so far must vanish
						}
					}
				}
			})
			if shadow[0] == ^uint64(0) {
				return false
			}
			copy(model, shadow) // committed: model takes the effects
		}
		for i := range words {
			if words[i].Raw() != model[i] || locals[i].v != model[len(words)+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAbortPurity: a transaction that always restarts on its first
// attempt must leave exactly the same state as one that never restarts.
func TestQuickAbortPurity(t *testing.T) {
	f := func(writes []uint8) bool {
		rtA := NewRuntime(Profile{})
		rtB := NewRuntime(Profile{})
		a := make([]Word, 4)
		b := make([]Word, 4)
		runOn := func(rt *Runtime, tid int, cells []Word, restartFirst bool) {
			first := true
			rt.AtomicT(tid, func(tx *Tx) {
				for i, w := range writes {
					cells[(i+int(w))%4].Store(tx, uint64(w)+1)
				}
				if restartFirst && first {
					first = false
					tx.Restart()
				}
			})
		}
		for _, tid := range ownedAndPooled {
			runOn(rtA, tid, a, true)
			runOn(rtB, tid, b, false)
			for i := range a {
				if a[i].Raw() != b[i].Raw() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
