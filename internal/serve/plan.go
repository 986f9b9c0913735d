package serve

import (
	"math"

	"hohtx/internal/sets"
)

// The shard plan: how a multi-key request is laid over the shards. Sharded
// (one caller-owned worker id, valid on every shard) and the connection
// loop (a worker slot leased per shard) plan identically, so the split and
// the merge below are the only ones in the package; the two callers differ
// in what they run per shard — the server leases a slot first.

// shardPlan is a batch split by shard. Its buffers are reused from call to
// call, so a long-lived owner splits without allocating.
type shardPlan struct {
	ops [][]sets.Op // ops[sh]: the ops routed to shard sh, in arrival order
	idx [][]int     // idx[sh][j]: ops[sh][j]'s position in the batch
}

// splitByShard routes each op to its key's shard. Order within a shard is
// arrival order (a batch's later ops must see its earlier ones), and idx
// is a permutation of the batch positions, so results scatter back exactly.
func splitByShard(p *shardPlan, ops []sets.Op, shards int) {
	if len(p.ops) != shards {
		p.ops, p.idx = make([][]sets.Op, shards), make([][]int, shards)
	}
	for sh := range p.ops {
		p.ops[sh], p.idx[sh] = p.ops[sh][:0], p.idx[sh][:0]
	}
	for i, op := range ops {
		sh := ShardOf(op.Key, shards)
		p.ops[sh] = append(p.ops[sh], op)
		p.idx[sh] = append(p.idx[sh], i)
	}
}

// ascendChunk is the most one pull takes from a shard, and pullSlack what a
// pull takes beyond the shard's even share of the keys the scan still
// wants. Each pull is one sub-scan bounded at its size (sets.Ascender's
// AscendN), which gives up its reservation hold in the transaction that
// reads its last key, so no cursor position is held while the merge is busy
// with other shards — or, in the server, while the shard's worker slot is
// released between pulls (a hold outliving its lease would make the slot's
// next owner resume from a stale position).
const (
	ascendChunk = 64
	pullSlack   = 6
)

// pullSize is how many keys a pull takes from one of shards cursors when the
// merge still wants left. Every key pulled is a node visited, and only left
// of them will be emitted, so a shard is asked for its share: of the next
// left keys a shard owns Binomial(left, 1/shards) — 32 ± 4 of 64 on two
// shards — and the slack covers about a standard deviation and a half. A
// shard that owned more drains before the scan is over and the merge's
// refill pulls again, sized by what is left then (one scan in eight at
// ASCEND 64 on two shards; EXPERIMENTS.md "ASCEND pays for the keys it
// emits" has the sweep). One shard owns every key and is asked for all of
// them; a long scan is capped by the chunk either way.
func pullSize(left, shards int) int {
	left = min(left, ascendChunk*shards) // past this the chunk decides, and the sum below cannot overflow
	return min(left, ascendChunk, (left-1)/shards+1+pullSlack)
}

// shardCursor is one shard's position in a streaming merge. Cursors are
// used in place and never copied once pulled from: take is bound to the
// cursor's address on first use so that a pull allocates nothing.
type shardCursor struct {
	next uint64            // where the next pull starts
	buf  []uint64          // keys pulled; buf[head:] are not yet emitted
	head int               // kept instead of reslicing buf, so its capacity survives
	done bool              // the shard holds nothing at or above next
	take func(uint64) bool // = sink, bound once
}

// reset aims the cursor at from, keeping its buffer.
func (c *shardCursor) reset(from uint64) {
	c.next, c.buf, c.head, c.done = from, c.buf[:0], 0, false
}

// pull refills the drained cursor with up to max keys from a, advancing
// next past the last one. The sub-scan is bounded at max, so it reads no
// key it will not deliver and its reservation hold is released before pull
// returns.
func (c *shardCursor) pull(a sets.Ascender, tid, max int) error {
	if c.take == nil {
		c.take = c.sink
	}
	c.buf, c.head = c.buf[:0], 0
	if err := a.AscendN(tid, c.next, max, c.take); err != nil {
		return err
	}
	c.done = len(c.buf) < max
	if n := len(c.buf); n > 0 {
		c.next = c.buf[n-1] + 1
	}
	return nil
}

func (c *shardCursor) sink(k uint64) bool {
	c.buf = append(c.buf, k)
	return true
}

// mergeAscend streams the cursors' keys to emit in ascending order until
// emit returns false, limit keys are out (limit <= 0: no limit) or every
// cursor is exhausted. A cursor with nothing buffered that is not done is
// handed to pull first, with the size its pull should have (pullSize of what
// the merge still wants) — in ascending shard order, the grouped-lease
// discipline that keeps two merges (or a merge and a MULTI) from
// deadlocking on each other's slots; a pull error ends the merge and is
// returned. Shards partition the keys and every cursor is ascending, so the
// merged stream is strictly ascending and exactly-once.
func mergeAscend(cursors []shardCursor, limit int, pull func(i int, cur *shardCursor, max int) error, emit func(key uint64) bool) error {
	left := limit
	if left <= 0 {
		left = math.MaxInt
	}
	for {
		best := -1
		for i := range cursors {
			cur := &cursors[i]
			if cur.head == len(cur.buf) && !cur.done {
				if err := pull(i, cur, pullSize(left, len(cursors))); err != nil {
					return err
				}
			}
			if cur.head == len(cur.buf) {
				continue
			}
			if best < 0 || cur.buf[cur.head] < cursors[best].buf[cursors[best].head] {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		cur := &cursors[best]
		if left--; !emit(cur.buf[cur.head]) || left == 0 {
			return nil
		}
		cur.head++
	}
}
