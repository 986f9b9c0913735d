package serve_test

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"hohtx/internal/arena"
	"hohtx/internal/family"
	"hohtx/internal/obs"
	"hohtx/internal/reclaim"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// numericLeaves visits every numeric leaf of v (through nested structs and
// arrays) and fails on a kind it cannot sum — a slice or map added to a
// stats struct needs a decision here, not silence.
func numericLeaves(t *testing.T, v reflect.Value, path string, visit func(path string, leaf reflect.Value)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Float32, reflect.Float64:
		visit(path, v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			numericLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			numericLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	default:
		t.Fatalf("%s: a %s field; teach this test (and Add) what summing it means", path, v.Kind())
	}
}

func setLeaf(leaf reflect.Value, n uint64) {
	switch {
	case leaf.CanUint():
		leaf.SetUint(n)
	case leaf.CanInt():
		leaf.SetInt(int64(n))
	default:
		leaf.SetFloat(float64(n))
	}
}

func leafValue(leaf reflect.Value) float64 {
	switch {
	case leaf.CanUint():
		return float64(leaf.Uint())
	case leaf.CanInt():
		return float64(leaf.Int())
	}
	return leaf.Float()
}

// checkAddSumsEveryField fills two values of T with a distinct number in
// every numeric leaf, adds them, and wants every leaf to hold the two
// numbers' sum: a field that Add forgets keeps the receiver's number. The
// top-level fields named in shared are not sums and are skipped.
func checkAddSumsEveryField[T any](t *testing.T, add func(dst *T, o T), shared ...string) {
	t.Helper()
	leaves := func(v reflect.Value, visit func(path string, leaf reflect.Value)) {
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; !slices.Contains(shared, name) {
				numericLeaves(t, v.Field(i), "."+name, visit)
			}
		}
	}
	var a, b T
	n := uint64(0)
	for _, v := range []*T{&a, &b} {
		leaves(reflect.ValueOf(v).Elem(), func(_ string, leaf reflect.Value) {
			n++
			setLeaf(leaf, n*1000+n)
		})
	}
	if n == 0 {
		t.Fatalf("%T has no numeric fields", a)
	}
	sum := a
	add(&sum, b)
	want := map[string]float64{}
	leaves(reflect.ValueOf(a), func(p string, leaf reflect.Value) { want[p] = leafValue(leaf) })
	leaves(reflect.ValueOf(b), func(p string, leaf reflect.Value) { want[p] += leafValue(leaf) })
	leaves(reflect.ValueOf(sum), func(p string, leaf reflect.Value) {
		if got := leafValue(leaf); got != want[p] {
			t.Errorf("%T%s = %v after Add, want %v: Add does not sum this field", a, p, got, want[p])
		}
	})
}

// TestStatsAddSumsEveryField is the one-place proof for a counter: adding
// a numeric field to stm.Stats, reclaim.Stats, arena.GuardStats or
// reclaim.Books without summing it in that type's Add fails here, and
// summing it there — an edit in the counter's own package — is all the
// aggregate views (Sharded, and through it the server's INFO, gauges and
// drain verdict) need to carry it. The books' PerKey and Traits are the
// structure's and the mechanism's, shared by every shard: Add carries them.
func TestStatsAddSumsEveryField(t *testing.T) {
	checkAddSumsEveryField(t, (*stm.Stats).Add)
	checkAddSumsEveryField(t, (*reclaim.Stats).Add)
	checkAddSumsEveryField(t, (*arena.GuardStats).Add)
	checkAddSumsEveryField(t, (*reclaim.Books).Add, "PerKey", "Traits")
	var sum reclaim.Books
	sum.Add(reclaim.Books{PerKey: 2, Traits: reclaim.Traits{Deferred: true, DrainRounds: 2}})
	if sum.PerKey != 2 || sum.Traits.DrainRounds != 2 {
		t.Errorf("Books.Add dropped the shard's PerKey or Traits: %+v", sum)
	}
}

// TestShardedStatsAreTheShardsSum closes the loop on a live instance: the
// facade's aggregates equal Add folded over its shards, leaf for leaf.
func TestShardedStatsAreTheShardsSum(t *testing.T) {
	sh := newSharded(t, 3, 1)
	sh.Register(0)
	for k := uint64(1); k <= 300; k++ {
		sh.Insert(0, k)
		if k%3 == 0 {
			sh.Remove(0, k)
		}
	}
	sh.Finish(0)
	var tm stm.Stats
	var rec reclaim.Stats
	var live uint64
	for i := 0; i < sh.ShardCount(); i++ {
		tm.Add(sh.Shard(i).(sets.TMStatsReporter).TMStats())
		rec.Add(sh.Shard(i).(sets.ReclaimReporter).ReclaimStats())
		live += sh.Shard(i).(sets.MemoryReporter).LiveNodes()
	}
	if got := sh.TMStats(); got != tm || got.Commits == 0 {
		t.Errorf("TMStats = %+v, shards sum to %+v", got, tm)
	}
	if got := sh.ReclaimStats(); got != rec {
		t.Errorf("ReclaimStats = %+v, shards sum to %+v", got, rec)
	}
	if got := sh.LiveNodes(); got != live {
		t.Errorf("LiveNodes = %d, shards sum to %d", got, live)
	}
}

// TestDeferredBooksReconcile (ROADMAP 5(a), one reconciliation): how many
// retired nodes still wait to be freed has three readers that share no
// code past the scheme's counters — the scheme's own books (retired −
// freed), the deferred_depth gauge on the structure's obs domain, and
// deferred= in INFO over the wire — and on a loopback TMHP server under
// MULTI churn they agree.
//
// Exactly, whenever nothing is in flight. Mid-run each of the two exports
// is read between two readings of the books, (R1, F1) before and (R2, F2)
// after. Retired and freed only grow, so at every instant in between the
// true depth lies in [R1 − F2, R2 − F1]: the interval is as wide as the
// retirements and frees that completed while the sample was being taken,
// which is the bound. One more per worker slot on either side: a retire
// bumps retired, then deferred, in two atomic adds (a free likewise), and a
// slot can be between its two.
func TestDeferredBooksReconcile(t *testing.T) {
	const (
		slots, conns, batch = 2, 3, 16
		threshold           = 24 // hazard scan threshold: a scan every other DEL frame
		samples             = 8
	)
	row, err := family.ByName(family.Singly)
	if err != nil {
		t.Fatal(err)
	}
	dom := obs.NewDomain(obs.DomainConfig{Name: "singly/TMHP", Threads: slots})
	set, err := row.Build("TMHP", reclaim.Config{Threads: slots, ScanThreshold: threshold, Obs: dom})
	if err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, serve.NewSharded([]sets.Set{set}), serve.PoolConfig{Slots: slots}, serve.ServerConfig{})
	control := dialClient(t, ts.addr)

	// The two ways the depth leaves the process.
	depthGauge := func() int64 {
		t.Helper()
		for _, g := range dom.Snapshot().Gauges {
			if g.Name == "deferred_depth" {
				return int64(g.Value)
			}
		}
		t.Fatal("the structure's domain has no deferred_depth gauge")
		return 0
	}
	infoDeferred := func() int64 {
		t.Helper()
		d, err := strconv.ParseInt(parseInfo(t, control.roundTrip(t, "INFO")[0])["deferred"], 10, 64)
		if err != nil {
			t.Fatalf("INFO deferred=: %v", err)
		}
		return d
	}

	// Each connection alternates a frame of SETs with a frame of DELs over
	// its own keys until told to stop.
	stop := make(chan struct{})
	var frames atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		nc, err := net.Dial("tcp", ts.addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer nc.Close()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
			for f := 0; ; f++ {
				verb := [2]string{"SET", "DEL"}[f&1]
				select {
				case <-stop:
					return
				default:
				}
				fmt.Fprintf(bw, "MULTI %d\n", batch)
				for k := 1; k <= batch; k++ {
					fmt.Fprintf(bw, "%s %d\n", verb, c*1000+k)
				}
				if err := bw.Flush(); err != nil {
					t.Errorf("conn %d: %v", c, err)
					return
				}
				for k := 1; k <= batch; k++ {
					if line, err := br.ReadString('\n'); err != nil || line != "1\n" {
						t.Errorf("conn %d %s %d -> %q, %v", c, verb, c*1000+k, line, err)
						return
					}
				}
				frames.Add(1)
			}
		}(c)
	}

	var peak int64
	for s := 0; s < samples; s++ {
		for next := frames.Load() + 20; frames.Load() < next && !t.Failed(); {
			runtime.Gosched()
		}
		// Each export is bracketed on its own: the gauge is one call away,
		// INFO a round trip during which whole frames run.
		b1 := set.ReclaimStats()
		gauge := depthGauge()
		b2 := set.ReclaimStats()
		info := infoDeferred()
		b3 := set.ReclaimStats()
		for _, r := range []struct {
			name          string
			depth         int64
			before, after reclaim.Stats
		}{{"deferred_depth", gauge, b1, b2}, {"INFO deferred=", info, b2, b3}} {
			lo := int64(r.before.Retired) - int64(r.after.Freed) - slots
			hi := int64(r.after.Retired) - int64(r.before.Freed) + slots
			if r.depth < lo || r.depth > hi {
				t.Errorf("sample %d: %s %d; the books bracket the depth in [%d, %d] (retired %d→%d, freed %d→%d)",
					s, r.name, r.depth, lo, hi, r.before.Retired, r.after.Retired, r.before.Freed, r.after.Freed)
			}
		}
		peak = max(peak, gauge, info)
	}
	close(stop)
	wg.Wait()
	if peak == 0 {
		t.Error("nothing was deferred at any sample: the churn this test reconciles under did not retire")
	}
	// Nothing in flight: the three agree exactly, before Shutdown and —
	// the two that outlive the server — after its Finish sweep.
	st := set.ReclaimStats()
	if gauge, info := depthGauge(), infoDeferred(); int64(st.Retired-st.Freed) != gauge || gauge != info {
		t.Errorf("at quiescence: retired-freed %d, deferred_depth %d, INFO deferred= %d", st.Retired-st.Freed, gauge, info)
	}
	ts.drain()
	st = set.ReclaimStats()
	if gauge := depthGauge(); int64(st.Retired-st.Freed) != gauge {
		t.Errorf("after drain: retired-freed %d, deferred_depth %d", st.Retired-st.Freed, gauge)
	}
}
