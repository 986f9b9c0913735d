// Package loadgen is the paper's workload (§5.1) in one place: keys drawn
// uniformly from a range, half of it prefilled, a lookup share, and inserts
// and removes splitting the rest. cmd/hohload, internal/torture and
// internal/bench all draw from it, so a new key distribution or op mix is
// one change here.
package loadgen

import (
	"hohtx/internal/core"
	"hohtx/internal/sets"
)

// SplitMix64 advances *x and returns a well-mixed value: the one RNG step
// every op stream takes.
func SplitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	return core.Mix64(*x)
}

// Mix is one op mix: keys uniform over [1, Keys], Reads percent of point
// ops lookups and the rest split evenly between inserts and removes, and
// ScanFrac percent of draws scans instead.
type Mix struct {
	Keys     uint64
	Reads    int
	ScanFrac int
}

// Draw takes one step of rng and returns the point op it picks, and whether
// the draw is a scan from op.Key in its place. The scan choice reads bits
// the point op never reads, so ScanFrac changes which draws are scans and
// nothing else.
func (m Mix) Draw(rng *uint64) (sets.Op, bool) {
	r := SplitMix64(rng)
	op := sets.Op{Kind: sets.OpRemove, Key: 1 + (r>>8)%m.Keys}
	switch {
	case int(r%100) < m.Reads:
		op.Kind = sets.OpLookup
	case r&(1<<40) == 0:
		op.Kind = sets.OpInsert
	}
	return op, int((r>>48)%100) < m.ScanFrac
}

// PrefillOrder returns every other key of [1, keys], the odd ones, in an
// order shuffled by seed. A balanced insert/remove mix holds a set near half
// the key range, so inserting these puts the structure at steady state;
// ascending order would build an unbalanced tree as one keys/2-deep chain.
func PrefillOrder(keys, seed uint64) []uint64 {
	order := make([]uint64, 0, (keys+1)/2)
	for k := uint64(1); k <= keys; k += 2 {
		order = append(order, k)
	}
	for i := len(order) - 1; i > 0; i-- {
		j := SplitMix64(&seed) % uint64(i+1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}
