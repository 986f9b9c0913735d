package list

import (
	"hohtx/internal/arena"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Batch execution: Apply runs a whole slice of operations inside ONE
// transaction — one snapshot, one commit — so the batch is atomic and pays
// the clock/commit cost once instead of per key.
//
// The hand-over-hand window machinery is deliberately bypassed: windows
// exist so a transaction can be split and resumed, and a batch is the
// opposite trade (merge many operations into one transaction). The batch
// therefore traverses each chain in ONE unbounded pass: ops are sorted by
// (chain, key, arrival order) and applied against a single advancing
// (prev, curr) cursor, so the read footprint is one pass over the chain
// regardless of batch size. What remains from the single-op paths is the
// reclamation contract: removals still Revoke (other threads' reservations
// on the victim must die) and still free/retire per the list's mode, so
// precise reclamation holds for batches too. A batch whose footprint
// exceeds the transaction capacity aborts with CauseCapacity and re-runs
// in serial mode — that fallback is the capacity cliff the batch-size
// statistics (stm.Stats.Batch) make measurable.

// applyBatch is the shared batch engine. chainOf/chainHead factor out the
// hash table's bucketing (the plain lists are one chain); insertAt and
// removeAt supply the structure-specific link maintenance.
func (l *List) applyBatch(tid int, ops []sets.Op,
	chainOf func(key uint64) int,
	chainHead func(chain int) arena.Handle,
	insertAt func(tx *stm.Tx, tid int, key uint64, prevH, currH arena.Handle) arena.Handle,
	removeAt func(tx *stm.Tx, tid int, prevH, currH arena.Handle),
) []sets.Result {
	if len(ops) == 0 {
		return nil
	}
	ts := &l.threads[tid]
	// Result and visit-order buffers are per-thread and grow-only (see
	// reclaim.Chassis.Results for the contract).
	out := l.Results(tid, len(ops))
	if cap(ts.batchOrder) < len(ops) {
		ts.batchOrder = make([]int, len(ops))
	}
	// Visit order: chain, then key, then arrival order — one monotone
	// cursor pass per chain, with same-key ops applied in program order.
	// Sorted by hand (shellsort) rather than sort.Slice: the latter boxes
	// the slice into an interface and heap-allocates its closure on every
	// batch.
	order := ts.batchOrder[:len(ops)]
	for i := range order {
		order[i] = i
	}
	sortOrder(order, ops, chainOf)
	l.Batch(tid, len(ops), func(tx *stm.Tx) {
		pos := 0
		for pos < len(order) {
			chain := chainOf(ops[order[pos]].Key)
			prevH := chainHead(chain)
			currH := l.Guard.Link(tx, tid, prevH, l.Ar.At(prevH).next.Load(tx))
			var ck uint64
			ckKnown := false
			for pos < len(order) && chainOf(ops[order[pos]].Key) == chain {
				key := ops[order[pos]].Key
				for !currH.IsNil() {
					n := l.Ar.At(currH)
					if !ckKnown {
						ck = l.Guard.Word(tx, tid, currH, n.key.Load(tx))
						ckKnown = true
					}
					if ck >= key {
						break
					}
					prevH = currH
					currH = l.Guard.Link(tx, tid, currH, n.next.Load(tx))
					ckKnown = false
				}
				present := !currH.IsNil() && ck == key
				for pos < len(order) && ops[order[pos]].Key == key {
					i := order[pos]
					switch ops[i].Kind {
					case sets.OpInsert:
						if present {
							out[i] = false
						} else {
							currH = insertAt(tx, tid, key, prevH, currH)
							ck, ckKnown = key, true
							present = true
							out[i] = true
						}
					case sets.OpRemove:
						if !present {
							out[i] = false
						} else {
							nxt := l.Guard.Link(tx, tid, currH, l.Ar.At(currH).next.Load(tx))
							removeAt(tx, tid, prevH, currH)
							currH = nxt
							ckKnown = false
							present = false
							out[i] = true
						}
					default:
						out[i] = present
					}
					pos++
				}
			}
		}
	})
	return out
}

// insertSingly links a new node after prevH (no back link); it is the
// batch form of the singly linked Insert's not-found callback.
func (l *List) insertSingly(tx *stm.Tx, tid int, key uint64, prevH, currH arena.Handle) arena.Handle {
	nh := l.allocNode(tx, tid, key, currH, arena.Nil)
	l.Ar.At(prevH).next.Store(tx, uint64(nh))
	return nh
}

// Apply implements sets.Set: one transaction, one sorted pass.
func (l *List) Apply(tid int, ops []sets.Op) []sets.Result {
	return l.applyBatch(tid, ops,
		func(uint64) int { return 0 },
		func(int) arena.Handle { return l.head },
		l.insertSingly,
		l.unlinkAndReclaim,
	)
}

// Apply implements sets.Set for the doubly linked list. The two-phase
// reserve-then-unlink removal of the single-op path collapses back into
// the enclosing transaction (as in its ModeHTM path): traversal and unlink
// commit together, so no hold phase is needed; the link still sees the
// victim unlinked, so ModeRR revokes it for other threads' reservations.
func (d *DList) Apply(tid int, ops []sets.Op) []sets.Result {
	return d.applyBatch(tid, ops,
		func(uint64) int { return 0 },
		func(int) arena.Handle { return d.head },
		d.insertDoubly,
		d.removeDoublyInTx,
	)
}

func (d *DList) insertDoubly(tx *stm.Tx, tid int, key uint64, prevH, currH arena.Handle) arena.Handle {
	nh := d.allocNode(tx, tid, key, currH, prevH)
	d.Ar.At(prevH).next.Store(tx, uint64(nh))
	if !currH.IsNil() {
		d.Ar.At(currH).prev.Store(tx, uint64(nh))
	}
	return nh
}

// removeDoublyInTx unlinks currH through its own links and hands it to the
// link (prevH is unused: the batch engine's callback shape).
func (d *DList) removeDoublyInTx(tx *stm.Tx, tid int, _, currH arena.Handle) {
	d.unlinkDoubly(tx, tid, currH)
	d.Unlinked(tx, tid, currH)
}

// Apply implements sets.Set for the hash table: ops are grouped by bucket
// and each bucket gets one sorted cursor pass, all inside one transaction.
func (h *HashTable) Apply(tid int, ops []sets.Op) []sets.Result {
	return h.l.applyBatch(tid, ops,
		h.bucketIndex,
		func(c int) arena.Handle { return h.heads[c] },
		h.l.insertSingly,
		h.l.unlinkAndReclaim,
	)
}

// sortOrder sorts the visit order by (chain, key, arrival index) with a
// gapped insertion sort (Ciura's shellsort gaps). It exists instead of
// sort.Slice because this runs once per batch on the serving hot path and
// must not allocate; batches are small (the server caps them at a few
// thousand ops), where shellsort is competitive anyway.
func sortOrder(order []int, ops []sets.Op, chainOf func(key uint64) int) {
	for _, gap := range shellGaps {
		if gap >= len(order) {
			continue
		}
		for i := gap; i < len(order); i++ {
			v := order[i]
			cv := chainOf(ops[v].Key)
			j := i
			for j >= gap {
				u := order[j-gap]
				cu := chainOf(ops[u].Key)
				if cu < cv || (cu == cv && (ops[u].Key < ops[v].Key || (ops[u].Key == ops[v].Key && u < v))) {
					break
				}
				order[j] = u
				j -= gap
			}
			order[j] = v
		}
	}
}

var shellGaps = [...]int{8929, 3905, 2161, 929, 505, 209, 109, 41, 19, 5, 1}
