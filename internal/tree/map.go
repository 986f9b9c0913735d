package tree

import (
	"hohtx/internal/arena"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// Map is an ordered key→value map over the external hand-over-hand tree:
// what a downstream user of this library typically wants instead of a bare
// set. Values are uint64 payloads stored in a transactional cell of the
// leaf, so Put's read-modify-write of an existing key is atomic with the
// traversal that found it, and Get returns the value that was current at
// its final window's snapshot.
//
// Routers never carry values; a leaf's value cell lives in the node's
// otherwise-unused dead Word (the external tree uses TMHP's dead flag only
// for routers/leaves under ModeTMHP, which the Map forbids — it requires a
// precise mode, keeping the value cell free).
type Map struct {
	t *External
}

// NewMap constructs an ordered map. cfg.Mode must be ModeRR or ModeHTM
// (the deferred-reclamation modes would alias the value storage and are
// not what a map user wants anyway).
func NewMap(cfg Config) *Map {
	t := NewExternal(cfg)
	t.requirePrecise("Map")
	return &Map{t: t}
}

// Name labels the map.
func (m *Map) Name() string { return m.t.Name() + "/map" }

// Register must be called once per thread before its first operation.
func (m *Map) Register(tid int) { m.t.Register(tid) }

// Finish flushes per-thread state (no-op for precise modes).
func (m *Map) Finish(tid int) { m.t.Finish(tid) }

// valueCell returns the leaf's payload cell.
func valueCell(n *node) *stm.Word { return &n.dead }

// op runs a map operation of kind on key: the external tree's shared
// descent to key's leaf, and there fn, the operation's value logic, whose
// result op returns. A key above MaxKey is absent, as in the set.
func (m *Map) op(tid int, kind sets.OpKind, key uint64, fn func(tx *stm.Tx, lf leaf, leafKey uint64) bool) (res bool) {
	if absent(sets.Op{Kind: kind, Key: key}) {
		return false
	}
	t := m.t
	t.Op(tid, t.root, 0, func(tx *stm.Tx, start arena.Handle, _ uint64, budget int) (arena.Handle, uint64, bool) {
		lf, at, _, more := t.descend(tx, tid, key, depth[kind], start, budget)
		if !more {
			res = fn(tx, lf, t.Guard.Word(tx, tid, lf.h, t.Ar.At(lf.h).key.Load(tx)))
		}
		return at, 0, more
	})
	return res
}

// Put maps key to val, returning the previous value and whether the key
// was already present.
func (m *Map) Put(tid int, key, val uint64) (prev uint64, existed bool) {
	existed = m.op(tid, sets.OpInsert, key, func(tx *stm.Tx, lf leaf, leafKey uint64) bool {
		if prev = 0; leafKey != key {
			valueCell(m.t.graft(tx, tid, lf, key, leafKey)).Store(tx, val)
			return false
		}
		cell := valueCell(m.t.Ar.At(lf.h))
		prev = cell.Load(tx)
		cell.Store(tx, val)
		return true
	})
	return prev, existed
}

// Get returns the value mapped to key.
func (m *Map) Get(tid int, key uint64) (val uint64, ok bool) {
	ok = m.op(tid, sets.OpLookup, key, func(tx *stm.Tx, lf leaf, leafKey uint64) bool {
		if val = 0; leafKey != key {
			return false
		}
		val = valueCell(m.t.Ar.At(lf.h)).Load(tx)
		return true
	})
	return val, ok
}

// Delete removes key, returning its value and whether it was present. The
// leaf and its parent router are reclaimed before Delete returns (precise).
func (m *Map) Delete(tid int, key uint64) (val uint64, ok bool) {
	ok = m.op(tid, sets.OpRemove, key, func(tx *stm.Tx, lf leaf, leafKey uint64) bool {
		if val = 0; leafKey != key {
			return false
		}
		val = valueCell(m.t.Ar.At(lf.h)).Load(tx)
		m.t.prune(tx, tid, lf)
		return true
	})
	return val, ok
}

// Len counts entries (quiescence required).
func (m *Map) Len() int { return len(m.t.Snapshot()) }

// Entries returns the (key, value) pairs in ascending key order
// (quiescence required).
func (m *Map) Entries() (keys, vals []uint64) {
	m.t.leaves(func(n *node) {
		keys = append(keys, n.key.Raw())
		vals = append(vals, valueCell(n).Raw())
	})
	return keys, vals
}

// LiveNodes implements sets.MemoryReporter via the underlying tree.
func (m *Map) LiveNodes() uint64 { return m.t.LiveNodes() }

// DeferredNodes implements sets.MemoryReporter (always 0: precise modes).
func (m *Map) DeferredNodes() uint64 { return m.t.DeferredNodes() }

var _ sets.MemoryReporter = (*Map)(nil)
