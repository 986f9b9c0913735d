package list

import (
	"hohtx/internal/arena"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Ordered iteration: the list's traversal under the chassis's cursor protocol
// (reclaim.Chassis.Cursor, which states the contract).

// Ascend implements sets.Ascender: it calls fn for each key >= from, in
// ascending order, until fn returns false or the list is exhausted. Only
// ModeRR and ModeHTM support it (ModeHTM runs the whole scan as one
// transaction); the deferred-reclamation modes return
// sets.ErrScanUnsupported — they have no revocable cursor position, so a
// windowed scan could dereference reclaimed nodes.
func (l *List) Ascend(tid int, from uint64, fn func(key uint64) bool) error {
	return l.AscendN(tid, from, 0, fn)
}

// AscendN implements sets.Ascender: Ascend, over after limit keys when
// limit > 0.
func (l *List) AscendN(tid int, from uint64, limit int, fn func(key uint64) bool) error {
	if !l.canAscend {
		return sets.ErrScanUnsupported
	}
	l.Cursor(tid, from, limit, l.head, 0, fn,
		func(tx *stm.Tx, prevH arena.Handle, _ uint64, budget, want int, last uint64, batch []uint64) ([]uint64, arena.Handle, uint64) {
			// Navigate to the first key >= last (no-op when resuming at a
			// held node, whose key is < last by construction).
			currH := arena.Handle(l.Ar.At(prevH).next.Load(tx))
			for steps := 0; !currH.IsNil() && steps < budget; steps++ {
				n := l.Ar.At(currH)
				if k := n.key.Load(tx); k >= last {
					if batch = append(batch, k); len(batch) == want {
						return batch, currH, 0 // the scan's last key: nothing past it is read
					}
				}
				prevH = currH
				currH = arena.Handle(n.next.Load(tx))
			}
			if currH.IsNil() {
				return batch, arena.Nil, 0
			}
			// Hand over at prevH: the node holding the last batched key, or
			// one with a key < last.
			return batch, prevH, 0
		})
	return nil
}

// CanAscend reports whether this list's mode supports the reservation
// cursor (the serve layer advertises scan capability through it).
func (l *List) CanAscend() bool { return l.canAscend }
