package hohtx

import (
	"sync"
	"testing"
)

func constructors() map[string]func(Config) Set {
	return map[string]func(Config) Set{
		"list":  NewListSet,
		"dlist": NewDoublyListSet,
		"itree": NewInternalTreeSet,
		"etree": NewExternalTreeSet,
		"hash":  func(c Config) Set { return NewHashSet(c, 32) },
		"skip":  NewSkipListSet,
	}
}

func TestFacadeBasics(t *testing.T) {
	for name, mk := range constructors() {
		for r := RRVersioned; r <= RRSetAssoc; r++ {
			s := mk(Config{Threads: 2, Reservation: r})
			s.Register(0)
			if !s.Insert(0, 10) || !s.Lookup(0, 10) || s.Insert(0, 10) {
				t.Fatalf("%s/%s: insert/lookup broken", name, r)
			}
			if !s.Remove(0, 10) || s.Lookup(0, 10) {
				t.Fatalf("%s/%s: remove broken", name, r)
			}
			st := StatsOf(s)
			if st.Commits == 0 {
				t.Fatalf("%s/%s: no commits recorded", name, r)
			}
			// One insert and one remove wrote.
			if st.WriteCommits < 2 || st.WriteCommits > st.Commits {
				t.Fatalf("%s/%s: %d write commits of %d after one insert and one remove",
					name, r, st.WriteCommits, st.Commits)
			}
		}
	}
}

func TestFacadeMemoryReporting(t *testing.T) {
	s := NewListSet(Config{Threads: 1})
	mem, ok := s.(MemoryReporter)
	if !ok {
		t.Fatal("facade set does not report memory")
	}
	s.Register(0)
	base := mem.LiveNodes()
	s.Insert(0, 5)
	if mem.LiveNodes() != base+1 {
		t.Fatal("insert not visible in LiveNodes")
	}
	s.Remove(0, 5)
	if mem.LiveNodes() != base {
		t.Fatal("remove did not reclaim immediately")
	}
	if mem.DeferredNodes() != 0 {
		t.Fatal("precise variant reported deferred nodes")
	}
}

func TestFacadeConcurrent(t *testing.T) {
	const threads = 4
	for name, mk := range constructors() {
		t.Run(name, func(t *testing.T) {
			s := mk(Config{Threads: threads, Reservation: RRExclusive, Window: 4})
			var wg sync.WaitGroup
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					s.Register(tid)
					for i := 0; i < 2000; i++ {
						k := uint64(i%64) + 1
						s.Insert(tid, k)
						s.Lookup(tid, k)
						s.Remove(tid, k)
					}
					s.Finish(tid)
				}(w)
			}
			wg.Wait()
			snap := s.Snapshot()
			for i := 1; i < len(snap); i++ {
				if snap[i-1] >= snap[i] {
					t.Fatal("snapshot not sorted")
				}
			}
		})
	}
}

func TestReservationNames(t *testing.T) {
	want := map[Reservation]string{
		RRVersioned:    "RR-V",
		RRExclusive:    "RR-XO",
		RRSharedOwner:  "RR-SO",
		RRFullyAssoc:   "RR-FA",
		RRDirectMapped: "RR-DM",
		RRSetAssoc:     "RR-SA",
	}
	for r, name := range want {
		if r.String() != name {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), name)
		}
	}
}

func TestFacadeShardedSet(t *testing.T) {
	const threads, shards, keys = 2, 3, 200
	set := NewShardedSet(shards, func(int) Set {
		return NewListSet(Config{Threads: threads})
	})
	if got := set.ShardCount(); got != shards {
		t.Fatalf("ShardCount = %d, want %d", got, shards)
	}
	mem, ok := Set(set).(MemoryReporter)
	if !ok {
		t.Fatal("sharded set does not report memory")
	}
	base := mem.LiveNodes()

	// Churn through a lease pool over the facade from more goroutines
	// than slots, exactly as on a single instance.
	pool := NewLeasePool(set, LeaseConfig{Slots: threads})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := uint64(1); k <= keys; k++ {
				_ = pool.Do(nil, func(tid int) {
					set.Insert(tid, k)
					if (k+uint64(g))%3 == 0 {
						set.Remove(tid, k)
					}
					set.Insert(tid, k)
				})
			}
		}(g)
	}
	wg.Wait()
	pool.Close()

	snap := set.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1] >= snap[i] {
			t.Fatalf("merged snapshot not strictly ascending at %d: %d then %d", i, snap[i-1], snap[i])
		}
	}
	for _, k := range snap {
		// Every key must be resident on exactly the shard the router picks.
		sh := set.Shard(set.ShardFor(k))
		sh.Register(0)
		if !sh.Lookup(0, k) {
			t.Fatalf("key %d not found on its routed shard", k)
		}
	}
	if live := mem.LiveNodes(); live != base+uint64(len(snap)) {
		t.Fatalf("live nodes %d != base %d + %d resident keys (precise reclamation per shard)",
			live, base, len(snap))
	}
	if d := mem.DeferredNodes(); d != 0 {
		t.Fatalf("%d deferred nodes on a precise sharded set", d)
	}
	if st := StatsOf(set); st.Commits == 0 {
		t.Fatal("aggregated stats show no commits")
	}
}
