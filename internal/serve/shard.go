package serve

import (
	"fmt"

	"hohtx/internal/arena"
	"hohtx/internal/obs"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// ShardOf maps a key to one of n shards. The mapping is a pure function
// of (key, n) — the same key always lands on the same shard for a given
// shard count, on every front end and in every harness — and it mixes the
// key through a full 64-bit finalizer first, so dense key ranges (1..K,
// the common benchmark shape) spread uniformly instead of striping.
func ShardOf(key uint64, n int) int {
	if n <= 1 {
		return 0
	}
	// splitmix64 finalizer: full-avalanche, no state.
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// Sharded hash-partitions keys across N fully independent sets.Set
// instances. Each shard brings its own STM runtime (global version clock
// and serial-fallback lock), arena, and reclamation scheme, so writers on
// different shards never touch a shared cache line — the single-clock
// serialization the paper's evaluation turns on stops at the shard
// boundary.
//
// Sharded itself implements sets.Set: Register/Finish fan out to every
// shard (worker id t exists in each shard's per-thread state), and the
// key-indexed operations route through ShardOf. Aggregate views —
// Snapshot, LiveNodes, transaction and guard statistics — merge across
// shards, so everything that consumes a Set (the lease pool, the torture
// harness, the benchmarks, hohtx.StatsOf) works unchanged on a sharded
// instance.
type Sharded struct {
	shards []sets.Set
	name   string
}

// NewSharded builds the facade over the given shards, which must all be
// configured with the same thread count. It panics on an empty slice —
// there is no meaningful zero-shard set.
func NewSharded(shards []sets.Set) *Sharded {
	if len(shards) == 0 {
		panic("serve: NewSharded with no shards")
	}
	name := shards[0].Name()
	if len(shards) > 1 {
		name = fmt.Sprintf("%s×%d", name, len(shards))
	}
	return &Sharded{shards: shards, name: name}
}

// ShardCount returns the number of shards.
func (s *Sharded) ShardCount() int { return len(s.shards) }

// Shard returns shard i (front ends that run one lease pool per shard
// need the underlying sets).
func (s *Sharded) Shard(i int) sets.Set { return s.shards[i] }

// ShardFor returns the shard index serving key.
func (s *Sharded) ShardFor(key uint64) int { return ShardOf(key, len(s.shards)) }

// ArmSpan arms sp as tid's active request span on every shard's
// observability domain (and disarms with a nil sp). Library-level callers
// going through the facade — the torture harness, embedding applications
// — cannot know which shard an operation will route to, so the span is
// armed everywhere the tid might execute; shards without a domain are
// skipped. The serving layer does not use this (it arms exactly the shard
// it routes to); it exists so facade users get the same per-request
// stm/reclaim phase stamping the server gets.
func (s *Sharded) ArmSpan(tid int, sp *obs.Span) {
	for _, sh := range s.shards {
		if or, ok := sh.(interface{ ObsDomain() *obs.Domain }); ok {
			or.ObsDomain().SetSpan(tid, sp)
		}
	}
}

// Register registers tid with every shard: a worker id owns its slot of
// per-thread state (reservations, allocator magazines, commit slots) in
// each shard, because its keys may route anywhere.
func (s *Sharded) Register(tid int) {
	for _, sh := range s.shards {
		sh.Register(tid)
	}
}

// Lookup routes to the key's shard.
func (s *Sharded) Lookup(tid int, key uint64) bool {
	return s.shards[ShardOf(key, len(s.shards))].Lookup(tid, key)
}

// Insert routes to the key's shard.
func (s *Sharded) Insert(tid int, key uint64) bool {
	return s.shards[ShardOf(key, len(s.shards))].Insert(tid, key)
}

// Remove routes to the key's shard.
func (s *Sharded) Remove(tid int, key uint64) bool {
	return s.shards[ShardOf(key, len(s.shards))].Remove(tid, key)
}

// Apply routes each op to its key's shard and runs one batch transaction
// per shard touched, in ascending shard order, preserving per-shard op
// order. Atomicity is therefore PER SHARD, not across the whole batch: a
// reader may observe shard i's sub-transaction committed while shard j's
// has not yet run. Single-shard instances retain full batch atomicity.
// The server surfaces this weaker contract in its INFO reply
// (multi=per-shard); see DESIGN.md §11.
func (s *Sharded) Apply(tid int, ops []sets.Op) []sets.Result {
	if len(s.shards) == 1 {
		return s.shards[0].Apply(tid, ops)
	}
	out := make([]sets.Result, len(ops))
	subOps := make([][]sets.Op, len(s.shards))
	subIdx := make([][]int, len(s.shards))
	for i, op := range ops {
		sh := ShardOf(op.Key, len(s.shards))
		subOps[sh] = append(subOps[sh], op)
		subIdx[sh] = append(subIdx[sh], i)
	}
	for sh := range s.shards {
		if len(subOps[sh]) == 0 {
			continue
		}
		for j, r := range s.shards[sh].Apply(tid, subOps[sh]) {
			out[subIdx[sh][j]] = r
		}
	}
	return out
}

// Finish flushes tid's deferred work in every shard.
func (s *Sharded) Finish(tid int) {
	for _, sh := range s.shards {
		sh.Finish(tid)
	}
}

// Snapshot merges the shards' snapshots into one ascending key list. Like
// every Snapshot in this repository it requires quiescence; each shard's
// slice is already sorted, so this is an N-way merge.
func (s *Sharded) Snapshot() []uint64 {
	parts := make([][]uint64, len(s.shards))
	total := 0
	for i, sh := range s.shards {
		parts[i] = sh.Snapshot()
		total += len(parts[i])
	}
	out := make([]uint64, 0, total)
	for {
		best := -1
		for i, p := range parts {
			if len(p) == 0 {
				continue
			}
			if best < 0 || p[0] < parts[best][0] {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, parts[best][0])
		parts[best] = parts[best][1:]
	}
}

// ascendChunk is the per-shard pull size for the streaming merge: each
// pull runs one bounded sub-scan whose reservation hold is dropped before
// the pull returns, so no cursor position is held while the merge is
// busy with other shards (or, in the server, while the shard's worker
// slot is released between pulls).
const ascendChunk = 64

// shardCursor is one shard's position in a streaming merge: the next key
// to pull from, the keys pulled but not yet emitted, and whether the
// shard is exhausted.
type shardCursor struct {
	next uint64
	buf  []uint64
	done bool
}

// pull refills the cursor with up to max keys from a, advancing next past
// the last key pulled. The sub-scan terminates itself (fn → false), so
// the underlying reservation hold is released before pull returns.
func (c *shardCursor) pull(a sets.Ascender, tid, max int) error {
	got := 0
	if err := a.Ascend(tid, c.next, func(k uint64) bool {
		c.buf = append(c.buf, k)
		got++
		return got < max
	}); err != nil {
		return err
	}
	if got < max {
		c.done = true
	}
	if got > 0 {
		c.next = c.buf[len(c.buf)-1] + 1
	}
	return nil
}

// Ascend implements sets.Ascender by interleaving one reservation cursor
// per shard through a streaming N-way merge — the online version of
// Snapshot, requiring no quiescence. Each shard is pulled one bounded
// chunk at a time; shards partition keys, so per-shard ascending order
// makes the merged stream strictly ascending and exactly-once. The
// result is weakly consistent per shard (the sync.Map.Range contract on
// sets.Ascender); cross-shard, a key inserted on one shard during the
// scan may be observed while an older key on another shard is not — no
// weaker than the single-shard contract's treatment of concurrent
// writers.
func (s *Sharded) Ascend(tid int, from uint64, fn func(key uint64) bool) error {
	if len(s.shards) == 1 {
		a, ok := s.shards[0].(sets.Ascender)
		if !ok {
			return sets.ErrScanUnsupported
		}
		return a.Ascend(tid, from, fn)
	}
	cursors := make([]shardCursor, len(s.shards))
	for i := range cursors {
		cursors[i].next = from
	}
	for {
		for i, sh := range s.shards {
			cur := &cursors[i]
			if cur.done || len(cur.buf) > 0 {
				continue
			}
			a, ok := sh.(sets.Ascender)
			if !ok {
				return sets.ErrScanUnsupported
			}
			if err := cur.pull(a, tid, ascendChunk); err != nil {
				return err
			}
		}
		best := -1
		for i := range cursors {
			if len(cursors[i].buf) == 0 {
				continue
			}
			if best < 0 || cursors[i].buf[0] < cursors[best].buf[0] {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		if !fn(cursors[best].buf[0]) {
			return nil
		}
		cursors[best].buf = cursors[best].buf[1:]
	}
}

// CanAscend reports whether every shard supports the reservation cursor
// (see the identically named methods on the structures; the serve layer
// advertises scan capability through it).
func (s *Sharded) CanAscend() bool {
	for _, sh := range s.shards {
		a, ok := sh.(sets.Ascender)
		if !ok {
			return false
		}
		if c, ok := a.(interface{ CanAscend() bool }); ok && !c.CanAscend() {
			return false
		}
	}
	return true
}

// Name labels the sharded instance, e.g. "RR-V×4".
func (s *Sharded) Name() string { return s.name }

// LiveNodes sums allocated-and-not-freed nodes across shards; zero if no
// shard reports memory.
func (s *Sharded) LiveNodes() uint64 {
	var n uint64
	for _, sh := range s.shards {
		if mr, ok := sh.(sets.MemoryReporter); ok {
			n += mr.LiveNodes()
		}
	}
	return n
}

// DeferredNodes sums logically-deleted-but-unreclaimed nodes across
// shards.
func (s *Sharded) DeferredNodes() uint64 {
	var n uint64
	for _, sh := range s.shards {
		if mr, ok := sh.(sets.MemoryReporter); ok {
			n += mr.DeferredNodes()
		}
	}
	return n
}

// SetWindow adjusts the hand-over-hand window on every shard (the
// hohtx.Tunable contract; examples/tuner drives it).
func (s *Sharded) SetWindow(w int) {
	for _, sh := range s.shards {
		if t, ok := sh.(interface{ SetWindow(int) }); ok {
			t.SetWindow(w)
		}
	}
}

// TxCommits sums committed transactions across shards.
func (s *Sharded) TxCommits() uint64 {
	var n uint64
	for _, sh := range s.shards {
		if r, ok := sh.(interface{ TxCommits() uint64 }); ok {
			n += r.TxCommits()
		}
	}
	return n
}

// TxAborts sums aborted speculative attempts across shards.
func (s *Sharded) TxAborts() uint64 {
	var n uint64
	for _, sh := range s.shards {
		if r, ok := sh.(interface{ TxAborts() uint64 }); ok {
			n += r.TxAborts()
		}
	}
	return n
}

// TxSerial sums serial-fallback commits across shards.
func (s *Sharded) TxSerial() uint64 {
	var n uint64
	for _, sh := range s.shards {
		if r, ok := sh.(interface{ TxSerial() uint64 }); ok {
			n += r.TxSerial()
		}
	}
	return n
}

// TMStats sums the shards' STM runtime counters field by field — each
// shard has its own clock and commit lock, so the aggregate is exactly
// "the traffic the instance generated", with no shared-counter double
// counting.
func (s *Sharded) TMStats() stm.Stats {
	var out stm.Stats
	for _, sh := range s.shards {
		r, ok := sh.(interface{ TMStats() stm.Stats })
		if !ok {
			continue
		}
		st := r.TMStats()
		out.Commits += st.Commits
		out.WriteCommits += st.WriteCommits
		out.SerialCommits += st.SerialCommits
		out.Extensions += st.Extensions
		for c := range st.Aborts {
			out.Aborts[c] += st.Aborts[c]
		}
		out.ClockCASes += st.ClockCASes
		out.BiasRevocations += st.BiasRevocations
		out.WriterWaits += st.WriterWaits
		out.CommitSlowPath += st.CommitSlowPath
		for b := range st.Batch {
			out.Batch[b].Txs += st.Batch[b].Txs
			out.Batch[b].Ops += st.Batch[b].Ops
			out.Batch[b].Aborts += st.Batch[b].Aborts
			out.Batch[b].Serial += st.Batch[b].Serial
		}
	}
	return out
}

// ReclaimStats sums the shards' reclamation counters.
func (s *Sharded) ReclaimStats() reclaim.Stats {
	var out reclaim.Stats
	for _, sh := range s.shards {
		r, ok := sh.(interface{ ReclaimStats() reclaim.Stats })
		if !ok {
			continue
		}
		st := r.ReclaimStats()
		out.Retired += st.Retired
		out.Freed += st.Freed
		out.Deferred += st.Deferred
		out.PeakDeferred += st.PeakDeferred // upper bound: peaks need not align
		out.Scans += st.Scans
		out.DelayOpsSum += st.DelayOpsSum
		out.Leftover += st.Leftover
	}
	return out
}

// GuardStats sums the shards' use-after-free sanitizer counters.
func (s *Sharded) GuardStats() arena.GuardStats {
	var out arena.GuardStats
	for _, sh := range s.shards {
		if g, ok := sh.(interface{ GuardStats() arena.GuardStats }); ok {
			st := g.GuardStats()
			out.PoisonReads += st.PoisonReads
			out.Violations += st.Violations
		}
	}
	return out
}
