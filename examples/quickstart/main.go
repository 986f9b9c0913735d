// Quickstart: the smallest useful program against the hohtx public API.
//
// It builds a hand-over-hand transactional set with RR-V reservations and
// drives it from twice as many goroutines as the set has worker slots —
// the situation every real program is in — by leasing slots from a
// hohtx.LeasePool instead of managing worker ids by hand. At the end it
// prints the set contents, the exact node memory accounting (precise
// reclamation means LiveNodes always equals the set size plus one
// sentinel), the transaction statistics, and the pool's backpressure
// statistics (how often a goroutine had to wait for a slot).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"sync"

	"hohtx"
)

func main() {
	const (
		slots   = 4 // worker ids the set is configured with
		workers = 8 // goroutines — more than slots, on purpose
	)
	set := hohtx.NewListSet(hohtx.Config{Threads: slots})
	pool := hohtx.NewLeasePool(set, hohtx.LeaseConfig{Slots: slots})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := pool.Handle() // affinity: tends to re-lease the same slot
			for i := 0; i < 100; i++ {
				key := uint64(w*100+i) + 1
				_ = h.Do(context.Background(), func(tid int) {
					set.Insert(tid, key)
					if i%2 == 0 {
						set.Remove(tid, key) // memory is reclaimed on return
					}
				})
			}
			_ = h.Do(context.Background(), func(tid int) {
				set.Insert(tid, 9999)
				set.Lookup(tid, 9999)
			})
		}(w)
	}
	wg.Wait()
	pool.Close() // waits for leases, flushes every worker slot

	snapshot := set.Snapshot()
	fmt.Printf("set holds %d keys; first few: %v\n", len(snapshot), snapshot[:5])

	mem := set.(hohtx.MemoryReporter)
	fmt.Printf("live nodes: %d (= %d keys + 1 sentinel), deferred: %d\n",
		mem.LiveNodes(), len(snapshot), mem.DeferredNodes())
	if mem.DeferredNodes() != 0 {
		panic("precise reclamation violated") // never happens: nothing waits
	}

	st := hohtx.StatsOf(set)
	fmt.Printf("transactions: %d committed, %d aborted attempts, %d serialized\n",
		st.Commits, st.Aborts, st.Serial)

	ps := pool.Stats()
	fmt.Printf("leases: %d granted (%d waited, %d affinity hits) over %d slots for %d goroutines\n",
		ps.Leases, ps.Waits, ps.AffinityHits, slots, workers)
}
