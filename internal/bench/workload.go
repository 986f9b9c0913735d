package bench

import (
	"sync"

	"hohtx/internal/loadgen"
	"hohtx/internal/sets"
)

// Workload describes one experimental condition, matching the paper's
// parameters: keys are drawn uniformly from a 2^KeyBits range, the set is
// pre-populated to 50% of the range, and each thread performs OpsPerThread
// operations of which LookupPct% are lookups and the rest split evenly
// between inserts and removes (§5.1).
type Workload struct {
	KeyBits      int
	LookupPct    int
	OpsPerThread int
}

// KeyRange is the number of distinct keys.
func (w Workload) KeyRange() uint64 { return 1 << w.KeyBits }

// Prefill inserts loadgen.PrefillOrder's keys, half the range, using up
// to `threads` workers.
func Prefill(s sets.Set, w Workload, threads int, seed int64) {
	target := loadgen.PrefillOrder(w.KeyRange(), uint64(seed))
	if threads < 1 {
		threads = 1
	}
	var wg sync.WaitGroup
	chunk := (len(target) + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo := t * chunk
		if lo >= len(target) {
			break
		}
		hi := lo + chunk
		if hi > len(target) {
			hi = len(target)
		}
		wg.Add(1)
		go func(tid int, part []uint64) {
			defer wg.Done()
			s.Register(tid)
			for _, k := range part {
				s.Insert(tid, k)
			}
		}(t, target[lo:hi])
	}
	wg.Wait()
}
