package torture

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"hohtx/internal/loadgen"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
)

// An entry is one recorded call of a run's history, stamped with obs.Now
// before the call (inv) and after it returned (resp). Its ops took effect
// as one atomic step — a single op, or one shard's part of an atomic Apply
// — with res their results. An entry without ops is a scan: an Ascend from
// lo that emitted keys, in order; the final snapshot is one from 0.
type entry struct {
	who       string
	inv, resp int64
	ops       []sets.Op
	res       []bool
	lo        uint64
	keys      []uint64
}

func (e entry) String() string { return fmt.Sprintf("%s [%d, %d]", e.who, e.inv, e.resp) }

// recorder is one log. It records an Apply at the scope it is atomic in:
// one entry per shard touched where batches are atomic (the scope INFO
// advertises), one per op elsewhere (the lock-free baselines).
type recorder struct {
	who    string
	shards int
	atomic bool
	log    []entry
}

// call logs ops and results, one entry per scope; it keeps neither slice.
func (r *recorder) call(inv, resp int64, ops []sets.Op, res []bool) {
	for scope := 0; scope < max(r.shards, len(ops)); scope++ {
		e := entry{who: r.who, inv: inv, resp: resp}
		for i, op := range ops {
			if r.atomic && serve.ShardOf(op.Key, r.shards) == scope || !r.atomic && i == scope {
				e.ops, e.res = append(e.ops, op), append(e.res, res[i])
			}
		}
		if e.ops != nil {
			r.log = append(r.log, e)
		}
	}
}

// check decides a history against a set of keys that starts empty, and
// returns one message per failure. Scans must emit strictly ascending keys
// from lo on; then two projections must linearize:
//
//   - per key: its ops, plus one lookup per scan answering whether the scan
//     emitted it — ASCEND's weak contract, which drops constraints across
//     keys and so cannot raise a false alarm;
//   - per component: keys joined by multi-key entries, searched whole with
//     every entry on them (scans aside), which decides batch atomicity.
func check(h []entry) (fails []string) {
	root := map[uint64]uint64{} // union-find over keys joined by an entry; no set holds 0
	find := func(k uint64) uint64 {
		for root[k] != 0 && root[k] != k {
			k, root[k] = root[root[k]], root[root[k]]
		}
		return k
	}
	var keys []uint64
	for _, e := range h {
		for j, k := range e.keys {
			if k < e.lo || j > 0 && k <= e.keys[j-1] {
				fails = append(fails, fmt.Sprintf("history: %v: emitted %d out of order", e, k))
				break
			}
		}
		keys = append(keys, e.keys...)
		for _, op := range e.ops {
			if keys = append(keys, op.Key); op.Key != e.ops[0].Key {
				r := find(e.ops[0].Key) // a root keeps an entry of its own
				root[r], root[find(op.Key)] = r, r
			}
		}
	}
	if fails != nil {
		return fails
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	perKey, perComp, members := map[uint64][]item{}, map[uint64][]item{}, map[uint64][]uint64{}
	for _, k := range keys {
		members[find(k)] = append(members[find(k)], k)
	}
	for i, e := range h {
		var on []uint64 // the keys the entry speaks for: a scan, every key from lo on
		if e.ops == nil {
			from, _ := slices.BinarySearch(keys, e.lo)
			on = keys[from:]
		} else if r := find(e.ops[0].Key); len(members[r]) > 1 {
			perComp[r] = append(perComp[r], item{src: i})
		}
		for _, op := range e.ops {
			if !slices.Contains(on, op.Key) {
				on = append(on, op.Key)
			}
		}
		for _, k := range on {
			perKey[k] = append(perKey[k], item{i, k})
		}
	}
	c := &checker{h: h}
	for _, k := range keys {
		if len(fails) < 8 && !c.search(perKey[k]) {
			fails = append(fails, c.report(fmt.Sprintf("key %d", k)))
		}
	}
	for _, k := range keys {
		if in := members[k]; len(in) > 1 && fails == nil && !c.search(perComp[k]) {
			return []string{c.report(fmt.Sprintf("keys %v (joined by atomic batches)", in))}
		}
	}
	return fails
}

// An item is an entry in a projection: its ops on key, or all of them when
// key is 0 (no set holds 0); on a scan, whether the scan emitted key.
type item struct {
	src int
	key uint64
}

// checker runs one search at a time: Wing and Gong's, with Lowe's memo of
// configurations explored (Zobrist hashes of the done-set and of the state,
// the set of present keys). Flipped keys are undone on backtrack.
type checker struct {
	h           []entry
	items       []item
	done        []bool
	in          map[uint64]bool
	hash        uint64
	flips, path []uint64 // path: the items linearized, in order
	memo        map[[3]uint64]bool
	best        int // the deepest the search got; there, its last steps and the open calls, none of which fit
	stuck, open []uint64
}

// mix maps x to a well-spread value, statelessly.
func mix(x uint64) uint64 { return loadgen.SplitMix64(&x) }

// apply runs it on the state if its results fit; changed: it flipped a key.
// An item that fits and flips nothing is linearized at once, with no branch.
func (c *checker) apply(it item) (ok, changed bool) {
	e := &c.h[it.src]
	if e.ops == nil {
		_, emitted := slices.BinarySearch(e.keys, it.key)
		return c.in[it.key] == emitted, false
	}
	mark := len(c.flips)
	for j, op := range e.ops {
		if it.key != 0 && op.Key != it.key {
			continue
		}
		// A lookup or remove answers whether the key was present; a
		// successful insert needs it absent, a failed one present.
		if (e.res[j] == c.in[op.Key]) == (op.Kind == sets.OpInsert) {
			c.undo(mark)
			return false, false
		}
		if e.res[j] && op.Kind != sets.OpLookup {
			c.flips = append(c.flips, op.Key)
			c.in[op.Key], c.hash = !c.in[op.Key], c.hash^mix(op.Key)
		}
	}
	return true, len(c.flips) > mark
}

func (c *checker) undo(mark int) {
	for _, k := range c.flips[mark:] {
		c.in[k], c.hash = !c.in[k], c.hash^mix(k)
	}
	c.flips = c.flips[:mark]
}

// search reports whether items have a linearization from the empty set.
func (c *checker) search(items []item) bool {
	slices.SortFunc(items, func(a, b item) int { return cmp.Compare(c.h[a.src].inv, c.h[b.src].inv) })
	c.items, c.done, c.path, c.best = items, make([]bool, len(items)), c.path[:0], -1
	c.in, c.hash, c.memo = map[uint64]bool{}, 0, map[[3]uint64]bool{}
	return c.extend(0, 0, 0, false)
}

// extend linearizes one more item, one not done whose invocation follows no
// response of another not done (lo: at most the first not done; d1, d2: the
// done-set's hashes). A forced step's configuration fails with its parent's.
func (c *checker) extend(lo int, d1, d2 uint64, changed bool) bool {
	for lo < len(c.items) && c.done[lo] {
		lo++
	}
	k := [3]uint64{d1, d2, c.hash}
	if lo == len(c.items) || c.memo[k] {
		return lo == len(c.items)
	} else if changed { // so a forced step's is not memoed
		c.memo[k] = true
	}
	end, open := int64(math.MaxInt64), make([]uint64, 0, 8) // open: the calls tried here
	for i := lo; i < len(c.items) && c.h[c.items[i].src].inv <= end; i++ {
		if c.done[i] {
			continue
		}
		end, open = min(end, c.h[c.items[i].src].resp), append(open, uint64(i))
		mark := len(c.flips)
		if ok, flipped := c.apply(c.items[i]); ok {
			c.done[i], c.path = true, append(c.path, uint64(i))
			if c.extend(lo, d1^mix(uint64(i)), d2^mix(uint64(i)|1<<40), flipped) {
				return true
			}
			c.done[i], c.path = false, c.path[:len(c.path)-1]
			c.undo(mark)
			if !flipped { // it fit here and changed nothing: no other choice helps
				break
			}
		}
	}
	if len(c.path) > c.best {
		c.best, c.stuck, c.open = len(c.path), slices.Clone(c.path[max(0, len(c.path)-4):]), slices.Clone(open)
	}
	return false
}

// report names what has no linearization and where the search got stuck.
func (c *checker) report(what string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "history: %s has no linearization; the search got deepest after", what)
	for n, i := range append(c.stuck, c.open[:min(len(c.open), 8)]...) {
		if n == len(c.stuck) {
			b.WriteString("\n    where none of these overlapping calls fits:")
		}
		it, e := c.items[i], c.h[c.items[i].src]
		if fmt.Fprintf(&b, "\n      %v", e); e.ops == nil {
			_, emitted := slices.BinarySearch(e.keys, it.key)
			fmt.Fprintf(&b, " ascend(%d) %s %d", e.lo, map[bool]string{true: "emitted", false: "skipped"}[emitted], it.key)
		}
		for j, op := range e.ops {
			if it.key == 0 || op.Key == it.key {
				fmt.Fprintf(&b, " %s(%d)=%v", [...]string{"lookup", "insert", "remove"}[op.Kind], op.Key, e.res[j])
			}
		}
	}
	return b.String()
}
