package stm

import (
	"math"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// readLockSpins bounds how long a read spins on a cell that is locked by a
// committing writer before aborting. Commits hold cell locks only for the
// short write-back window, so a small bound suffices.
const readLockSpins = 64

// abortSig is the panic sentinel used internally to unwind an aborting
// transaction out of user code. It never escapes Atomic.
type abortSig struct{}

// rentry is one read-set record: the cell's version word and the version
// observed when the value was read.
type rentry struct {
	m   *atomic.Uint64
	ver uint64
}

// wentry is one write-set record: a pending store of val to the Word whose
// version word is m and value word dst. prev caches the pre-lock version
// during commit so locks can be released on failure and self-locks
// recognized during read-set validation.
type wentry struct {
	m    *atomic.Uint64
	dst  *atomic.Uint64
	val  uint64
	prev uint64
}

// lentry is one pending Local store.
type lentry struct {
	dst *Local
	val uint64
}

// Tx is one transaction attempt's context. A Tx is only valid inside the
// closure passed to Runtime.Atomic or Runtime.Chain and must not be
// retained, shared between goroutines, or used after the closure returns.
//
// The struct is exactly four cache lines (TestTxLayout), a size the
// allocator hands out 64-byte aligned, because neighbouring contexts are
// driven by different processors: unpadded, one Tx's tail (the commit
// counts: written every window) shares a line with its neighbour's head
// (the read set's slice header: written on every read), and a list
// traversal by two threads runs a tenth slower for it. Aligned, the field
// order below is also the line layout:
//
//	line 1  everything Word.Load's fast path tests or writes: rv, wfilter,
//	        rs, rsHead, limit, wn (serial, cause and busy fill the word)
//	line 2  ws, ls, widx (read-own-writes past the filter), rt
//	line 3  commit and abort hooks, rsBase, rng
//	line 4  per-call bookkeeping and the counts flush publishes
type Tx struct {
	rv uint64 // snapshot (read) version; even
	// wfilter has one bit set per pending Word write, chosen by
	// filterBit from the address of the cell's version word. A clear bit
	// proves the cell has no pending write (addWrite sets the bit of every
	// entry it appends, so there are no false negatives); a set bit means
	// lookupWrite must be asked. A zero filter — nothing written yet — needs
	// no hash at all, which the read paths test first.
	wfilter uint64
	rs      []rentry
	rsHead  int // entries below this index are early-released
	// limit is the footprint bound in force for this attempt: the profile's
	// Capacity, or math.MaxInt when that is zero or the attempt is serial.
	limit int
	// wn is len(ws)+len(ls), the write side of the footprint, kept beside
	// the read side so the capacity predicate reads one line.
	wn     int32
	serial bool // true when running under the exclusive serial lock
	cause  AbortCause
	// busy marks the context a tid owns (Runtime.ctxs) in use by a chain;
	// release tells owned from pooled by it, so it is never set on a pooled
	// Tx.
	busy bool

	ws []wentry
	ls []lentry // pending Local stores (see cell.go)
	// widx indexes ws by cell: an open-addressing table of a power-of-two
	// length at least twice len(ws), whose slot holds a write-set position
	// + 1, or 0 when empty. It only grows, so a context keeps the largest
	// table it has needed; reset empties just the slots the attempt filled.
	widx *[]int32
	rt   *Runtime

	commitHooks []txHook
	abortHooks  []txHook
	rsBase      uint64 // logical index of rs[0] (survives compaction)
	rng         uint64 // xorshift state for backoff jitter

	// Counted by the owner in plain fields, published by flush (stats.go).
	extensions    uint64 // snapshot extensions performed
	slowPaths     uint64 // commit-lock slow-path acquisitions
	commits       uint32
	writeCommits  uint32
	serialCommits uint32

	tid      int32          // caller's thread id for observability (-1 unknown)
	slotHash uint64         // per-Tx BRAVO commit-slot hash (fixed at creation)
	stats    *statBlock     // where flush publishes: the context's own block, or the fallback
	conflict *atomic.Uint64 // version word that caused the last abort, if known
	_        [8]byte        // fills the fourth line
}

// txSeq hands out distinct slot hashes to transaction contexts; consecutive
// values multiplied by the golden-ratio constant spread across the BRAVO
// table's index bits (Fibonacci hashing).
var txSeq atomic.Uint64

// newTx returns a context of rt that publishes its counts into stats.
func newTx(rt *Runtime, tid int, stats *statBlock) *Tx {
	return &Tx{
		rt:       rt,
		rs:       make([]rentry, 0, 256),
		ws:       make([]wentry, 0, 32),
		ls:       make([]lentry, 0, 8),
		widx:     new([]int32),
		rng:      0x9e3779b97f4a7c15,
		slotHash: txSeq.Add(1) * 0x9e3779b97f4a7c15,
		tid:      int32(tid),
		stats:    stats,
	}
}

// reset prepares the Tx for a fresh attempt.
func (tx *Tx) reset(serial bool) {
	tx.rv = tx.rt.now()
	tx.serial = serial
	tx.limit = math.MaxInt
	if c := tx.rt.prof.Capacity; c > 0 && !serial {
		tx.limit = c
	}
	tx.cause = CauseNone
	tx.conflict = nil
	tx.rs = tx.rs[:0]
	tx.rsHead = 0
	tx.rsBase = 0
	// Empty the index slots the last attempt filled, not the table (that
	// would cost the largest write set the context ever held), newest
	// first: the table then is as it was when the entry went in, so its
	// probe still finds it.
	for i, t := len(tx.ws)-1, *tx.widx; i >= 0; i-- {
		t[tx.slot(t, tx.ws[i].m)] = 0
	}
	tx.ws = tx.ws[:0]
	tx.ls = tx.ls[:0]
	tx.wn = 0
	tx.wfilter = 0
	tx.commitHooks = tx.commitHooks[:0]
	tx.abortHooks = tx.abortHooks[:0]
}

// Serial reports whether this attempt runs in the serialized fallback mode.
// Data structure code can consult it to skip contention-avoidance work that
// only matters under speculation.
func (tx *Tx) Serial() bool { return tx.serial }

// Restart aborts the current attempt and re-executes the transaction from
// the beginning (possibly in serial mode, per the runtime's profile).
func (tx *Tx) Restart() {
	tx.abort(CauseExplicit)
}

// txHook is one deferred effect: the call fn(a, b, c). Hot paths register
// reclamation work against a function value bound once at construction
// time — a closure capturing the operation's (tid, handle, stamp) would
// heap-allocate on every removal, while the arguments travel inline here
// and allocate nothing.
type txHook struct {
	fn      func(a, b, c uint64)
	a, b, c uint64
}

func (h *txHook) run() { h.fn(h.a, h.b, h.c) }

// OnCommitCall registers fn(a, b, c) to run exactly once, after this
// transaction has committed and released all commit-time locks. The paper
// observes that memory management inside transactions hurts performance;
// the data structures in this repository queue node frees here, which keeps
// reclamation *immediate* (it happens at the commit point, before the
// enclosing operation returns) while staying outside speculation. Pass a
// function value bound once (a struct field, a method value hoisted out of
// the hot path), not a fresh closure, so nothing escapes per call.
func (tx *Tx) OnCommitCall(fn func(a, b, c uint64), a, b, c uint64) {
	tx.commitHooks = append(tx.commitHooks, txHook{fn: fn, a: a, b: b, c: c})
}

// OnAbortCall registers fn(a, b, c) to run if this attempt aborts (it is
// discarded on commit). Used to return speculatively allocated nodes to the
// allocator.
func (tx *Tx) OnAbortCall(fn func(a, b, c uint64), a, b, c uint64) {
	tx.abortHooks = append(tx.abortHooks, txHook{fn: fn, a: a, b: b, c: c})
}

// abort unwinds the attempt with the given cause.
func (tx *Tx) abort(c AbortCause) {
	tx.cause = c
	panic(abortSig{})
}

// footprint is the tracked state the HTM simulation charges the attempt
// for. Early-released reads no longer occupy tracked state (in real HTM
// early release is impossible, which is precisely the paper's motivation —
// callers using ReadMark/ForgetReadsBefore have opted out of the HTM model).
// Pending Local stores occupy transactional state like any other write.
func (tx *Tx) footprint() int { return len(tx.rs) - tx.rsHead + int(tx.wn) }

// checkCapacity enforces the footprint bound before an access is recorded.
func (tx *Tx) checkCapacity() {
	if tx.footprint() >= tx.limit {
		tx.abort(CauseCapacity)
	}
}

// Writes returns how many stores the attempt has pending, Local ones
// included: what a caller that cuts its own transactions short
// (reclaim.Chassis.Pass) reads to keep their write sets small.
func (tx *Tx) Writes() int { return int(tx.wn) }

// Reads returns how many reads the attempt has logged (the read side of its
// footprint), which reclaim.Chassis.Pass reads to keep its read sets small
// too.
func (tx *Tx) Reads() int { return len(tx.rs) - tx.rsHead }

// ReadMark returns a position in the transaction's read history for use
// with ForgetReadsBefore.
func (tx *Tx) ReadMark() uint64 { return tx.rsBase + uint64(len(tx.rs)) }

// ForgetReadsBefore early-releases every read recorded before mark: those
// locations are dropped from conflict detection, so later writers to them
// no longer abort this transaction (Herlihy et al.'s early release [17],
// the software-only alternative to hand-over-hand windows that §1 of the
// paper contrasts revocable reservations with). Releasing a read weakens
// opacity for the released prefix — callers own the correctness argument,
// exactly as they do with hand-over-hand windows.
func (tx *Tx) ForgetReadsBefore(mark uint64) {
	if mark <= tx.rsBase {
		return
	}
	h := int(mark - tx.rsBase)
	if h > len(tx.rs) {
		h = len(tx.rs)
	}
	if h > tx.rsHead {
		tx.rsHead = h
	}
	// Amortized compaction keeps the slice from growing without bound on
	// long traversals.
	if tx.rsHead >= 256 && tx.rsHead*2 >= len(tx.rs) {
		n := copy(tx.rs, tx.rs[tx.rsHead:])
		tx.rs = tx.rs[:n]
		tx.rsBase += uint64(tx.rsHead)
		tx.rsHead = 0
	}
}

// recordRead appends a validated read to the read set.
func (tx *Tx) recordRead(m *atomic.Uint64, ver uint64) {
	tx.checkCapacity()
	tx.rs = append(tx.rs, rentry{m: m, ver: ver})
}

// logRead is recordRead when recording takes no call: the log has room and
// the footprint is under the limit (checkCapacity's predicate, before the
// entry is recorded). It reports false, having changed nothing, when either
// needs recordRead itself.
func (tx *Tx) logRead(m *atomic.Uint64, ver uint64) bool {
	n := len(tx.rs)
	if n >= cap(tx.rs) || tx.footprint() >= tx.limit {
		return false
	}
	rs := tx.rs[:n+1] // through a local, the store needs no bounds check
	rs[n] = rentry{m: m, ver: ver}
	tx.rs = rs
	return true
}

// cleanRead is the common read of w: its version is unlocked, no newer than
// the snapshot and unchanged across the value load. It returns the value and
// the version to log, or ok false when the read needs loadWord's protocol.
// It records nothing.
func (tx *Tx) cleanRead(w *Word) (val, ver uint64, ok bool) {
	ver = w.m.Load()
	val = w.v.Load()
	return val, ver, ver&lockedBit == 0 && ver <= tx.rv && w.m.Load() == ver
}

// filterBit is the wfilter bit of the cell whose version word is m: the top
// six bits of a multiplicative hash of the address, so the cells of one node
// and nodes a fixed stride apart spread over all 64 bits.
func filterBit(m *atomic.Uint64) uint64 {
	return 1 << (uint64(uintptr(unsafe.Pointer(m))) * 0x9e3779b97f4a7c15 >> 58)
}

// readable returns a version of the cell with version word m that this
// transaction may read at: unlocked and no newer than the snapshot. It waits
// out a committing writer (briefly) and extends the snapshot over a newer
// version, aborting where either fails. The caller loads the value and
// confirms the version still stands (loadWord).
func (tx *Tx) readable(m *atomic.Uint64) uint64 {
	for spins := 0; ; spins++ {
		v1 := m.Load()
		if v1&lockedBit != 0 {
			// Locked by a committing writer: wait briefly, then give up.
			if spins >= readLockSpins {
				tx.conflict = m
				tx.abort(CauseReadConflict)
			}
			pause(spins)
			continue
		}
		if v1 <= tx.rv {
			return v1
		}
		// The cell committed after our snapshot; try to slide the snapshot
		// forward instead of aborting.
		tx.extend()
	}
}

// loadWord is Word.Load past its fast path: the full read protocol, for a
// cell with no pending write.
func (tx *Tx) loadWord(m, v *atomic.Uint64) uint64 {
	for {
		v1 := tx.readable(m)
		val := v.Load()
		if m.Load() == v1 {
			tx.recordRead(m, v1)
			return val
		}
		// Changed underneath us; retry the double-check.
	}
}

// extend slides the snapshot forward to the clock — which is at or above
// every cell version, the one that sent the caller here included —
// aborting if any prior read has been overwritten (which would make the
// extended snapshot inconsistent). On success subsequent reads accept
// versions up to the new snapshot.
func (tx *Tx) extend() {
	newRv := tx.rt.now()
	for i := tx.rsHead; i < len(tx.rs); i++ {
		if tx.rs[i].m.Load() != tx.rs[i].ver {
			tx.conflict = tx.rs[i].m
			tx.abort(CauseReadConflict)
		}
	}
	tx.rv = newRv
	tx.extensions++
}

// findWrite looks up a pending Word write to the cell with version word m.
func (tx *Tx) findWrite(m *atomic.Uint64) (uint64, bool) {
	if i, ok := tx.lookupWrite(m); ok {
		return tx.ws[i].val, true
	}
	return 0, false
}

// lookupWrite returns the write-set position of the pending write to the
// cell with version word m, if there is one. A set filter bit guarantees an
// index with at least one entry.
func (tx *Tx) lookupWrite(m *atomic.Uint64) (int, bool) {
	if tx.wfilter&filterBit(m) == 0 {
		return 0, false
	}
	t := *tx.widx
	p := t[tx.slot(t, m)]
	return int(p) - 1, p != 0
}

// slot probes the index t linearly for the cell with version word m and
// returns where it stops: the slot holding m's write-set position + 1, or the
// first empty one. The probe starts at middle bits of the product filterBit
// takes its top six from, so the cells that share a filter bit still spread
// over the table.
func (tx *Tx) slot(t []int32, m *atomic.Uint64) int {
	mask := len(t) - 1
	s := int(uint64(uintptr(unsafe.Pointer(m)))*0x9e3779b97f4a7c15>>32) & mask
	for t[s] != 0 && tx.ws[t[s]-1].m != m {
		s = (s + 1) & mask
	}
	return s
}

// findLocal returns the index of the pending store to l, or -1. A
// transaction stores to a handful of Locals at most, so a scan suffices.
func (tx *Tx) findLocal(l *Local) int {
	for i := len(tx.ls) - 1; i >= 0; i-- {
		if tx.ls[i].dst == l {
			return i
		}
	}
	return -1
}

// addWrite records a write-set entry, deduplicating by cell so commit never
// tries to lock the same cell twice. The probe that de-duplicates is the one
// that finds a new entry its empty slot, so it is not gated by the filter.
func (tx *Tx) addWrite(e wentry) {
	n := len(tx.ws)
	t := *tx.widx
	if 2*(n+1) > len(t) {
		// Double the index (to twice ws's starting capacity the first time)
		// and re-insert ws in order, as reset's newest-first emptying needs.
		t = make([]int32, max(2*len(t), 64))
		for i := range tx.ws {
			t[tx.slot(t, tx.ws[i].m)] = int32(i + 1)
		}
		*tx.widx = t
	}
	s := tx.slot(t, e.m)
	if p := t[s]; p != 0 {
		e.prev = tx.ws[p-1].prev
		tx.ws[p-1] = e
		return
	}
	tx.checkCapacity()
	t[s] = int32(n + 1)
	tx.ws = append(tx.ws, e)
	tx.wn++
	tx.wfilter |= filterBit(e.m)
}

func (tx *Tx) writeWord(m, dst *atomic.Uint64, val uint64) {
	tx.addWrite(wentry{m: m, dst: dst, val: val})
}

// commit attempts to make the transaction's writes visible atomically.
// It returns false (with tx.cause set) if the transaction must be retried.
// Serial-mode commits cannot fail: the exclusive serial lock guarantees no
// concurrent commit has interleaved since the snapshot was taken.
func (tx *Tx) commit() bool {
	if len(tx.ws) == 0 {
		// Read-only: every read was validated against a consistent
		// snapshot when it happened, so there is nothing left to check.
		return true
	}
	rt := tx.rt
	slot := -1
	if !tx.serial {
		// Exclude serial transactions for the duration of the commit. The
		// common case claims one padded slot in the distributed lock's
		// visible-readers table (see biaslock.go).
		if slot = rt.commitLock.rlockFast(tx.slotHash); slot < 0 {
			rt.commitLock.rlockSlow(&tx.slowPaths)
		}
		defer rt.commitLock.runlock(slot)
	}

	// Phase 1: lock the write set (bounded: CAS-or-fail, so no deadlock).
	for i := range tx.ws {
		e := &tx.ws[i]
		cur := e.m.Load()
		if cur&lockedBit != 0 || !e.m.CompareAndSwap(cur, cur|lockedBit) {
			tx.releaseLocks(i)
			tx.cause = CauseWriteLock
			tx.conflict = e.m
			return false
		}
		e.prev = cur
	}

	// The write version is unique to this commit and above every version
	// any cell carries.
	wv := rt.clock.Add(2)

	// Phase 2: validate the read set, unless no other transaction can have
	// committed since our snapshot (TL2's rv+2 == wv fast path, sound
	// because write versions are unique).
	if wv != tx.rv+2 {
		for i := tx.rsHead; i < len(tx.rs); i++ {
			r := &tx.rs[i]
			cur := r.m.Load()
			if cur == r.ver {
				continue
			}
			if cur == r.ver|lockedBit && tx.ownsLock(r.m, r.ver) {
				continue
			}
			tx.releaseLocks(len(tx.ws))
			tx.cause = CauseValidation
			tx.conflict = r.m
			return false
		}
	}

	// Phase 3: write back and release each lock with the new version.
	for i := range tx.ws {
		e := &tx.ws[i]
		e.dst.Store(e.val)
		e.m.Store(wv)
	}
	return true
}

// ownsLock reports whether the locked cell m is locked by this transaction
// with pre-lock version prev.
func (tx *Tx) ownsLock(m *atomic.Uint64, prev uint64) bool {
	if i, ok := tx.lookupWrite(m); ok {
		return tx.ws[i].prev == prev
	}
	return false
}

// releaseLocks restores the pre-lock versions of ws[0:n].
func (tx *Tx) releaseLocks(n int) {
	for i := 0; i < n; i++ {
		tx.ws[i].m.Store(tx.ws[i].prev)
	}
}

// Rand returns a cheap pseudo-random value from the transaction's private
// generator. It is not a transactional effect (it advances even if the
// transaction aborts), which is exactly what contention-randomization
// helpers like scatter want.
func (tx *Tx) Rand() uint64 { return tx.nextRand() }

// nextRand steps the transaction's xorshift generator (backoff jitter and
// the scatter helper both draw from it).
func (tx *Tx) nextRand() uint64 {
	x := tx.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	tx.rng = x
	return x
}

// pauseSink absorbs the spin loop's accumulator so the compiler cannot
// prove the loop effect-free and eliminate it. The store is unreachable in
// practice (the accumulator never hits all-ones), so pause never writes a
// shared cache line.
var pauseSink atomic.Uint64

// pause burns a few cycles proportional to the spin count, yielding the
// processor occasionally so single-core runs make progress.
func pause(spins int) {
	if spins&7 == 7 {
		runtime.Gosched()
		return
	}
	s := pauseSink.Load()
	for i := 0; i < 4<<uint(spins&7); i++ {
		s += s<<1 | uint64(i)
	}
	if s == ^uint64(0) {
		pauseSink.Store(s)
	}
}
