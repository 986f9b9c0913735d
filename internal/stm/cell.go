package stm

import "sync/atomic"

// Cells.
//
// A cell is one transactionally-managed memory location: a version lock
// word plus an atomically accessed value word. The version lock encoding is
// TL2's: even values are commit timestamps, odd values mean "locked by a
// committing writer" and carry the pre-lock version in the remaining bits.
// Versions only ever increase, and recycling nodes that contain cells is
// safe under two rules. First, a reused cell keeps its version history, so
// a transaction that read the cell before the recycle can never
// revalidate. Second — and easy to miss — the freeing code must *retire*
// each cell's version (Word.Retire) past the current clock before the slot
// can be reused: a transaction that merely holds a stale *path* to the
// node (it read the link that pointed there before the unlinking commit's
// write-back) has not read the node's cells yet, and a fresh first read at
// the cell's old version would validate against the stale snapshot. For a
// read-only transaction, which never revalidates its read set at commit,
// that fresh read would assemble a zombie snapshot out of the recycled
// node's raw-initialized values and commit it. Retiring the versions makes
// such a read force a snapshot extension, which fails on the bumped link
// cell and aborts the doomed reader — the software analog of the hardware
// conflict that would have aborted it under real HTM.

const lockedBit = uint64(1)

// Word is a transactional 64-bit cell. It is the workhorse cell type: data
// structure keys, link handles (arena.Handle values) and all revocable
// reservation metadata are stored in Words.
//
// The zero Word is ready to use and holds zero. Words must not be copied
// after first use.
type Word struct {
	m atomic.Uint64 // version lock
	v atomic.Uint64 // value
}

// Load returns the cell's value as of the transaction's snapshot, aborting
// the transaction (by panicking with an internal sentinel that Atomic
// intercepts) if a consistent value cannot be obtained.
//
// The common read — no pending write to the cell, version unlocked and within
// the snapshot, room in the read log and under the footprint limit — is done
// here with no call; everything else (a pending write, a locked or newer
// cell, log growth, the capacity abort) takes the full protocol in loadWord,
// which re-reads the cell from scratch.
func (w *Word) Load(tx *Tx) uint64 {
	if f := tx.wfilter; f == 0 || f&filterBit(&w.m) == 0 {
		if val, ver, ok := tx.cleanRead(w); ok && tx.logRead(&w.m, ver) {
			return val
		}
	} else if val, ok := tx.findWrite(&w.m); ok {
		return val
	}
	return tx.loadWord(&w.m, &w.v)
}

// LoadBelow is one node visit of an ordered descent: it loads key and, only
// when that value is below bound, link as well, and reports whether it did.
// It records exactly what key.Load and then (if more) link.Load would — the
// same values, log entries, versions and capacity charge — so a caller whose
// step is "read the key, then this node's link" makes one call per node
// instead of two. Bound 0 reads the key alone.
//
// The common visit — neither cell has a pending write, both versions are
// clean, and the log has room for both entries under the footprint limit — is
// done here with one filter test and one room check. Anything else falls back
// to the two Word.Loads, having changed nothing.
func LoadBelow(tx *Tx, key, link *Word, bound uint64) (k, l uint64, more bool) {
	if f := tx.wfilter; f == 0 || f&(filterBit(&key.m)|filterBit(&link.m)) == 0 {
		if k, kver, ok := tx.cleanRead(key); ok {
			if k >= bound {
				if tx.logRead(&key.m, kver) {
					return k, 0, false
				}
			} else if l, lver, ok := tx.cleanRead(link); ok {
				if n := len(tx.rs); n+2 <= cap(tx.rs) && tx.footprint()+1 < tx.limit {
					rs := tx.rs[:n+2]
					rs[n] = rentry{m: &key.m, ver: kver}
					rs[n+1] = rentry{m: &link.m, ver: lver}
					tx.rs = rs
					return k, l, true
				}
			}
		}
	}
	if k = key.Load(tx); k >= bound {
		return k, 0, false
	}
	return k, link.Load(tx), true
}

// Store buffers a write of x to the cell; the write takes effect if and
// only if the transaction commits.
func (w *Word) Store(tx *Tx, x uint64) {
	tx.writeWord(&w.m, &w.v, x)
}

// Init sets the cell's value without any transaction. It must only be used
// before the cell is shared (e.g. while initializing a freshly allocated
// node that no other goroutine can reach yet).
func (w *Word) Init(x uint64) { w.v.Store(x) }

// Raw returns the cell's current value without transactional protection.
// It is intended for statistics, debug printing and single-threaded
// verification; the value may be mid-commit torn with respect to other
// cells.
func (w *Word) Raw() uint64 { return w.v.Load() }

// Poison overwrites the cell's value with sentinel x without touching the
// version lock, for the arena's guard (use-after-free sanitizer) mode.
// Unlike Init, the cell may still be reachable through stale handles; the
// sentinel makes such a read *observable* to the sanitizer. Poison relies
// on the freeing code having already retired the cell (Retire): with the
// version lifted past every pre-free snapshot, a doomed reader's load of
// the sentinel cannot validate, so the only reads that can return it are
// made by transactions whose snapshot postdates the free — true
// use-after-frees, which the sanitizer reports. The store is atomic, so
// racing readers stay race-detector clean.
func (w *Word) Poison(x uint64) { w.v.Store(x) }

// Retire lifts the cell's version lock to at least ver without writing the
// value, where ver is an even fence obtained from Runtime.VersionFence.
// Freeing code calls it on every cell of a node leaving a structure, per
// the recycling rules in the package comment: a transaction whose snapshot
// predates the free then cannot take a fresh read of the dead cell — the
// read observes a version above its snapshot, forces an extension, and the
// extension fails on the (bumped) cell whose rewrite unlinked the node.
// Transactions that reach the slot's next incarnation legitimately are
// unaffected, because the commit that republishes it chooses a write
// version at or above the fence. If a committing writer transiently holds
// the cell's lock, Retire waits it out: any such writer reached the cell
// through the rewritten link, so it must fail its read-set validation and
// release.
func (w *Word) Retire(ver uint64) {
	for spins := 0; ; spins++ {
		cur := w.m.Load()
		if cur&lockedBit == 0 {
			if cur >= ver || w.m.CompareAndSwap(cur, ver) {
				return
			}
			continue
		}
		pause(spins)
	}
}

// Local is a thread-private transactional word: a cell that exactly one
// thread (one tid) ever loads or stores, such as a revocable reservation's
// own R_t/V_t slots. It keeps the one transactional property such a cell
// needs — a store takes effect if and only if the transaction commits — and
// drops everything that exists to order accesses between threads: it has no
// version lock, is never in the read or write set, is never validated, and
// therefore does not turn a read-only transaction into a writer. Stores are
// buffered in the Tx (read-own-writes), applied to plain memory right after a
// successful commit and before the commit hooks run, and discarded when the
// attempt aborts or fn panics — which is what hardware TM does with a
// transactional store to memory no other core touches.
//
// Pending stores count toward Profile.Capacity like Word writes: under real
// HTM they occupy the same write buffer.
//
// The owner contract is the caller's to keep. Handing a tid (and with it
// its Locals) to another goroutine needs a happens-before edge between the
// two, as a lease pool's release/acquire provides.
//
// The zero Local holds zero.
type Local struct{ v uint64 }

// Load returns the value as of this point in the transaction: the pending
// store if the transaction made one, else the committed value.
func (l *Local) Load(tx *Tx) uint64 {
	if i := tx.findLocal(l); i >= 0 {
		return tx.ls[i].val
	}
	return l.v
}

// Store buffers a write of x; it takes effect if and only if the
// transaction commits.
//
// Like Word.Load, the common store — the first to this Local, with room in
// the log and under the footprint limit — makes no call.
func (l *Local) Store(tx *Tx, x uint64) {
	if i := tx.findLocal(l); i >= 0 {
		tx.ls[i].val = x
		return
	}
	if n := len(tx.ls); n < cap(tx.ls) && tx.footprint() < tx.limit {
		tx.ls = tx.ls[:n+1]
		tx.ls[n] = lentry{dst: l, val: x}
	} else {
		tx.checkCapacity()
		tx.ls = append(tx.ls, lentry{dst: l, val: x})
	}
	tx.wn++
}
