package serve

import (
	"errors"
	"fmt"

	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/obs"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// ShardOf maps a key to one of n shards. The mapping is a pure function
// of (key, n) — the same key always lands on the same shard for a given
// shard count, on every front end and in every harness — and it mixes the
// key (plus splitmix64's gamma) through core.Mix64 first, so dense key
// ranges (1..K, the common benchmark shape) spread uniformly, not striped.
func ShardOf(key uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(core.Mix64(key+0x9e3779b97f4a7c15) % uint64(n))
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
// instance. Server reads its own INFO line and gauges through one.
type Sharded struct {
	shards []sets.Set
	name   string

	// The shards' optional views (the named interfaces beside sets.Set),
	// asserted once at construction. A shard without a view is absent
	// from that view's aggregate.
	asc   []sets.Ascender // per shard; nil unless every shard can scan
	pass  []sets.Passer   // per shard; nil entries for shards that run ops one at a time
	doms  []*obs.Domain   // per shard; nil entries for detached shards
	mem   []sets.MemoryReporter
	tm    []sets.TMStatsReporter
	rec   []sets.ReclaimReporter
	guard []sets.GuardReporter
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
	s := &Sharded{
		shards: shards,
		name:   name,
		pass:   make([]sets.Passer, len(shards)),
		doms:   make([]*obs.Domain, len(shards)),
		mem:    viewsOf[sets.MemoryReporter](shards),
		tm:     viewsOf[sets.TMStatsReporter](shards),
		rec:    viewsOf[sets.ReclaimReporter](shards),
		guard:  viewsOf[sets.GuardReporter](shards),
	}
	for i, sh := range shards {
		if or, ok := sh.(sets.ObsReporter); ok {
			s.doms[i] = or.ObsDomain()
		}
		if a, ok := sh.(sets.Ascender); ok {
			s.asc = append(s.asc, a)
		}
		if p, ok := sh.(sets.Passer); ok {
			s.pass[i] = p
		}
	}
	if len(s.asc) != len(shards) {
		s.asc = nil
	}
	return s
}

// viewsOf collects the shards that implement the optional interface V.
func viewsOf[V any](shards []sets.Set) []V {
	var out []V
	for _, sh := range shards {
		if v, ok := sh.(V); ok {
			out = append(out, v)
		}
	}
	return out
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
	for _, d := range s.doms {
		d.SetSpan(tid, sp)
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
	var plan shardPlan
	splitByShard(&plan, ops, len(s.shards))
	for sh, sub := range plan.ops {
		if len(sub) == 0 {
			continue
		}
		for j, r := range s.shards[sh].Apply(tid, sub) {
			out[plan.idx[sh][j]] = r
		}
	}
	return out
}

// Pass implements sets.Passer: each op routes to its key's shard, and the
// shards touched run their ops in ascending shard order, each as one pass
// (sets.Passer) or, on a shard without one — the doubly linked list, the
// lock-free baselines — one at a time through its point methods. Either way every op linearizes on its own, as a point op
// does. One shard with a pass answers in its scratch; otherwise the
// results are a fresh slice.
func (s *Sharded) Pass(tid int, ops []sets.Op) []sets.Result {
	if p := s.pass[0]; len(s.shards) == 1 && p != nil {
		return p.Pass(tid, ops)
	}
	out := make([]sets.Result, len(ops))
	var plan shardPlan
	splitByShard(&plan, ops, len(s.shards))
	for sh, sub := range plan.ops {
		s.passShard(sh, tid, sub, out, plan.idx[sh])
	}
	return out
}

// passShard runs ops, every one routed to shard sh, under tid: as one pass
// when the shard has one (every TM structure but the doubly linked list),
// one at a time through its point methods otherwise. Op j's result goes to
// out[idx[j]].
func (s *Sharded) passShard(sh, tid int, ops []sets.Op, out []sets.Result, idx []int) {
	if p := s.pass[sh]; p != nil {
		for j, r := range p.Pass(tid, ops) {
			out[idx[j]] = r
		}
		return
	}
	for j, op := range ops {
		out[idx[j]] = sets.Do(s.shards[sh], tid, op)
	}
}

// Finish flushes tid's deferred work in every shard.
func (s *Sharded) Finish(tid int) {
	for _, sh := range s.shards {
		sh.Finish(tid)
	}
}

// Snapshot merges the shards' snapshots into one ascending key list. Like
// every Snapshot in this repository it requires quiescence; each shard's
// slice is already sorted, so this is the merge over fully buffered,
// exhausted cursors (nothing to refill, hence no error).
func (s *Sharded) Snapshot() []uint64 {
	cursors := make([]shardCursor, len(s.shards))
	total := 0
	for i, sh := range s.shards {
		cursors[i] = shardCursor{buf: sh.Snapshot(), done: true}
		total += len(cursors[i].buf)
	}
	out := make([]uint64, 0, total)
	_ = mergeAscend(cursors, 0, nil, func(k uint64) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Ascend implements sets.Ascender by interleaving one reservation cursor
// per shard through the streaming merge — the online version of Snapshot,
// requiring no quiescence. Each shard is pulled one bounded chunk at a
// time. The result is weakly consistent per shard (the sync.Map.Range
// contract on sets.Ascender); cross-shard, a key inserted on one shard
// during the scan may be observed while an older key on another shard is
// not — no weaker than the single-shard contract's treatment of
// concurrent writers.
func (s *Sharded) Ascend(tid int, from uint64, fn func(key uint64) bool) error {
	return s.AscendN(tid, from, 0, fn)
}

// AscendN implements sets.Ascender: Ascend, over after limit keys when
// limit > 0 — and then the merge sizes each pull by what it still wants, as
// it does for the server.
func (s *Sharded) AscendN(tid int, from uint64, limit int, fn func(key uint64) bool) error {
	if s.asc == nil {
		return sets.ErrScanUnsupported
	}
	if len(s.asc) == 1 {
		return s.asc[0].AscendN(tid, from, limit, fn)
	}
	cursors := make([]shardCursor, len(s.asc))
	for i := range cursors {
		cursors[i].next = from
	}
	return mergeAscend(cursors, limit, func(i int, cur *shardCursor, max int) error {
		return cur.pull(s.asc[i], tid, max)
	}, fn)
}

// CanAscend reports whether every shard is a sets.Ascender (the serve
// layer advertises scan= from it).
func (s *Sharded) CanAscend() bool { return s.asc != nil }

// Name labels the sharded instance, e.g. "RR-V×4".
func (s *Sharded) Name() string { return s.name }

// LiveNodes sums allocated-and-not-freed nodes across shards; zero if no
// shard reports memory.
func (s *Sharded) LiveNodes() (n uint64) {
	for _, m := range s.mem {
		n += m.LiveNodes()
	}
	return n
}

// DeferredNodes sums logically-deleted-but-unreclaimed nodes across
// shards.
func (s *Sharded) DeferredNodes() (n uint64) {
	for _, m := range s.mem {
		n += m.DeferredNodes()
	}
	return n
}

// Books is the verdict at quiescence, shard by shard: no worker id below
// slots has a request span armed or its transaction context busy, and the
// shard's books balance against its own keys (reclaim.Books.Check), so two
// shards leaking in opposite directions cannot cancel. sum adds the books
// read; err, wrapping ErrUnbalanced, names every shard and worker id that
// failed.
func (s *Sharded) Books(slots int, drained bool) (sum reclaim.Books, err error) {
	var errs []error
	for i, sh := range s.shards {
		n := len(errs)
		busy, _ := sh.(sets.BusyReporter)
		for tid := 0; tid < slots; tid++ {
			if s.doms[i].SpanOf(tid) != nil {
				errs = append(errs, fmt.Errorf("shard %d: worker %d: a request span is still armed", i, tid))
			}
			if busy != nil && busy.Busy(tid) {
				errs = append(errs, fmt.Errorf("shard %d: worker %d: transaction context busy", i, tid))
			}
		}
		r, ok := sh.(sets.BooksReporter)
		if !ok || len(errs) > n {
			continue // no arena, or not at rest: the books cannot be read
		}
		b := r.Books(uint64(len(sh.Snapshot())))
		if e := b.Check(drained); e != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, e))
		}
		sum.Add(b)
	}
	if len(errs) > 0 {
		err = fmt.Errorf("%w: %w", ErrUnbalanced, errors.Join(errs...))
	}
	return sum, err
}

// TMStats sums the shards' STM runtime counters — each shard has its own
// clock and commit lock, so the aggregate is exactly "the traffic the
// instance generated", with no shared-counter double counting. Which
// fields exist is stm.Stats.Add's business, as it is reclaim's and
// arena's below: a new counter needs no edit here.
func (s *Sharded) TMStats() (out stm.Stats) {
	for _, r := range s.tm {
		out.Add(r.TMStats())
	}
	return out
}

// ReclaimStats sums the shards' reclamation counters.
func (s *Sharded) ReclaimStats() (out reclaim.Stats) {
	for _, r := range s.rec {
		out.Add(r.ReclaimStats())
	}
	return out
}

// GuardStats sums the shards' use-after-free sanitizer counters.
func (s *Sharded) GuardStats() (out arena.GuardStats) {
	for _, g := range s.guard {
		out.Add(g.GuardStats())
	}
	return out
}
