package stm

import "testing"

// TestRetirePreventsZombieSnapshot pins the recycling rule from the cell.go
// package comment with a deterministic interleaving. A read-only
// transaction reads a link cell (obtaining a path to a "node"), then a
// concurrent writer rewrites the link, retires the node's cell and
// reinitializes it with a new value (the recycle). The reader's subsequent
// first read of the node cell must not validate at the cell's stale
// version: read-only transactions skip commit-time validation, so without
// the retire step the reader would commit a snapshot pairing the old link
// with the recycled value — the zombie the torture harness's sanitizer
// caught on singly/TMHP. With the retire step, the read forces a snapshot
// extension that fails on the rewritten link, and the attempt re-executes
// against a consistent world.
func TestRetirePreventsZombieSnapshot(t *testing.T) {
	// One case, under the name it has always run as: the clock is TL2's GV1.
	t.Run("gv1", func(t *testing.T) {
		rt := NewRuntime(Profile{})
		var link, cell Word
		link.Init(1)  // "the node is linked in"
		cell.Init(42) // the node's payload

		recycled := make(chan struct{})
		freed := make(chan struct{})
		go func() {
			<-recycled
			rt.Atomic(func(tx *Tx) { link.Store(tx, 0) }) // unlink
			cell.Retire(rt.VersionFence())                // free...
			cell.Init(99)                                 // ...and recycle
			close(freed)
		}()

		attempts := 0
		var gotLink, gotCell uint64
		rt.Atomic(func(tx *Tx) {
			attempts++
			gotLink = link.Load(tx)
			if attempts == 1 {
				recycled <- struct{}{}
				<-freed
			}
			gotCell = cell.Load(tx)
		})

		if attempts < 2 {
			t.Fatalf("reader committed on the first attempt: zombie snapshot link=%d cell=%d",
				gotLink, gotCell)
		}
		if gotLink != 0 || gotCell != 99 {
			t.Fatalf("retry read link=%d cell=%d, want the post-recycle world 0/99",
				gotLink, gotCell)
		}
	})
}

// TestTickVersionFence checks the property reclaim.VBR's drain rule
// rests on: after a tick, VersionFence is strictly greater than every
// fence value observed before the tick.
func TestTickVersionFence(t *testing.T) {
	rt := NewRuntime(Profile{})
	before := rt.VersionFence()
	rt.TickVersionFence()
	after := rt.VersionFence()
	if after <= before {
		t.Fatalf("fence %d -> %d after tick, want strict advance", before, after)
	}
	if after%2 != 0 || before%2 != 0 {
		t.Fatalf("fences must stay even: %d -> %d", before, after)
	}
}
