package hohtx_test

import (
	"fmt"

	"hohtx"
)

// The simplest possible use: one worker, one list.
func ExampleNewListSet() {
	set := hohtx.NewListSet(hohtx.Config{Threads: 1})
	set.Register(0)
	set.Insert(0, 7)
	fmt.Println(set.Lookup(0, 7))
	fmt.Println(set.Remove(0, 7))
	fmt.Println(set.Lookup(0, 7))
	// Output:
	// true
	// true
	// false
}

// Precise reclamation is observable: node memory tracks the set size
// exactly, with nothing deferred.
func ExampleMemoryReporter() {
	set := hohtx.NewExternalTreeSet(hohtx.Config{Threads: 1})
	set.Register(0)
	for k := uint64(1); k <= 100; k++ {
		set.Insert(0, k)
	}
	for k := uint64(1); k <= 100; k++ {
		set.Remove(0, k)
	}
	mem := set.(hohtx.MemoryReporter)
	// 5 sentinels remain; every removed node was freed before Remove
	// returned.
	fmt.Println(mem.LiveNodes(), mem.DeferredNodes())
	// Output:
	// 5 0
}

// Choosing a reservation scheme and window size explicitly.
func ExampleConfig() {
	set := hohtx.NewDoublyListSet(hohtx.Config{
		Threads:     4,
		Reservation: hohtx.RRExclusive, // RR-XO: O(1) revoke
		Window:      16,                // the paper's <=4-thread tuning
	})
	set.Register(0)
	set.Insert(0, 1)
	st := hohtx.StatsOf(set)
	fmt.Println(st.Commits > 0, st.Serial)
	// Output:
	// true 0
}

// Ordered maps carry values; Put/Get/Delete are atomic hand-over-hand
// operations with precise reclamation.
func ExampleNewOrderedMap() {
	m := hohtx.NewOrderedMap(hohtx.Config{Threads: 1})
	m.Register(0)
	m.Put(0, 3, 300)
	prev, existed := m.Put(0, 3, 301)
	fmt.Println(prev, existed)
	v, ok := m.Get(0, 3)
	fmt.Println(v, ok)
	v, ok = m.Delete(0, 3)
	fmt.Println(v, ok, m.Len())
	// Output:
	// 300 true
	// 301 true
	// 301 true 0
}

// Ordered iteration: the iterator's position is a revocable reservation.
func ExampleAscender() {
	set := hohtx.NewListSet(hohtx.Config{Threads: 1, Window: 2})
	set.Register(0)
	for _, k := range []uint64{5, 1, 9, 3} {
		set.Insert(0, k)
	}
	var got []uint64
	set.(hohtx.Ascender).Ascend(0, 2, func(k uint64) bool {
		got = append(got, k)
		return true
	})
	fmt.Println(got)
	// Output:
	// [3 5 9]
}
