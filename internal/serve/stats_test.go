package serve_test

import (
	"fmt"
	"reflect"
	"testing"

	"hohtx/internal/arena"
	"hohtx/internal/reclaim"
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
// numbers' sum: a field that Add forgets keeps the receiver's number.
func checkAddSumsEveryField[T any](t *testing.T, add func(dst *T, o T)) {
	t.Helper()
	var a, b T
	n := uint64(0)
	for _, v := range []*T{&a, &b} {
		numericLeaves(t, reflect.ValueOf(v).Elem(), reflect.TypeOf(a).String(), func(_ string, leaf reflect.Value) {
			n++
			setLeaf(leaf, n*1000+n)
		})
	}
	leaves := n / 2
	if leaves == 0 {
		t.Fatalf("%T has no numeric fields", a)
	}
	sum := a
	add(&sum, b)
	want := map[string]float64{}
	numericLeaves(t, reflect.ValueOf(a), "", func(p string, leaf reflect.Value) { want[p] = leafValue(leaf) })
	numericLeaves(t, reflect.ValueOf(b), "", func(p string, leaf reflect.Value) { want[p] += leafValue(leaf) })
	numericLeaves(t, reflect.ValueOf(sum), "", func(p string, leaf reflect.Value) {
		if got := leafValue(leaf); got != want[p] {
			t.Errorf("%T%s = %v after Add, want %v: Add does not sum this field", a, p, got, want[p])
		}
	})
}

// TestStatsAddSumsEveryField is the one-place proof for a counter: adding
// a numeric field to stm.Stats, reclaim.Stats or arena.GuardStats without
// summing it in that type's Add fails here, and summing it there — an edit
// in the counter's own package — is all the aggregate views (Sharded, and
// through it the server's INFO and gauges) need to carry it.
func TestStatsAddSumsEveryField(t *testing.T) {
	checkAddSumsEveryField(t, (*stm.Stats).Add)
	checkAddSumsEveryField(t, (*reclaim.Stats).Add)
	checkAddSumsEveryField(t, (*arena.GuardStats).Add)
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
