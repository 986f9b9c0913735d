package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// stream renders the first n bursts of one connection's request stream.
func stream(w *workload, seed uint64, conn, n int) ([]byte, [numKinds]uint64) {
	g := newGenerator(w, seed, conn)
	var out []byte
	for _, k := range g.prefillKeys() {
		out = appendRequests(out, []op{{opSet, k}}, 1, w.scanLen)
	}
	ops := make([]op, w.opsPerBurst())
	for i := 0; i < n; i++ {
		g.fill(ops)
		out = appendRequests(out, ops, max(1, w.multi), w.scanLen)
	}
	return out, g.mix
}

func TestStreamDependsOnSeedAlone(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, mixA := stream(w, 7, 1, 200)
		b, mixB := stream(w, 7, 1, 200)
		if !bytes.Equal(a, b) || mixA != mixB {
			t.Errorf("%s: same seed gave different streams or mix counts", w.name)
		}
		c, _ := stream(w, 8, 1, 200)
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		d, _ := stream(w, 7, 0, 200)
		if bytes.Equal(a, d) {
			t.Errorf("%s: both connections draw the same stream", w.name)
		}
	}
}

func TestPointWorkloadsDifferInKeysAlone(t *testing.T) {
	small, large := workloads[0], workloads[1]
	if small.name != "point-small" || large.name != "point-large" {
		t.Fatal("workload order changed")
	}
	// ladderOps only sets how long a rung takes, and the reference beside a
	// workload is shaped like it; the server sees neither.
	small.name, small.keys, small.ladderOps = large.name, large.keys, large.ladderOps
	small.refWalk, small.refLatUs, small.refCPUUs = large.refWalk, large.refLatUs, large.refCPUUs
	if small != large {
		t.Errorf("point-small and point-large differ in more than the key range:\n%+v\n%+v", small, large)
	}
}

func TestHistQuantilesWithinOnePercent(t *testing.T) {
	r := newRNG(3)
	var h hist
	var ref []float64
	for i := 0; i < 200_000; i++ {
		// Log-uniform over 1 µs … 4 ms with a heavy tail, like latencies.
		v := uint64(1000 * math.Exp2(float64(r.below(12_000))/1000))
		h.record(v)
		ref = append(ref, float64(v))
	}
	sort.Float64s(ref)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := ref[int(math.Ceil(q*float64(len(ref))))-1]
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.3f = %.0f, sort-based reference %.0f", q, got, want)
		}
	}
	var m hist
	m.merge(&h)
	m.merge(&h)
	if m.n != 2*h.n || m.quantile(0.5) != h.quantile(0.5) {
		t.Error("merging a histogram with itself moved the median")
	}
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<40 - 1, 1 << 50} {
		if b := histBucket(v); b < 0 || b >= histBuckets {
			t.Errorf("histBucket(%d) = %d out of range", v, b)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	// Ten rates with one noisy-neighbour dip: the median ignores it.
	rates := []float64{100, 101, 99, 100, 55, 102, 100, 98, 101, 100}
	if got := median(rates); got != 100 {
		t.Errorf("median = %v, want 100", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if got, want := relIQR(xs), 5.5/5.5; got != want {
		t.Errorf("relIQR = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v; Python gives 1, 4.5", q1, q3)
	}
}

func TestLadderSelfTimesTelescope(t *testing.T) {
	self := ladderSelf(300, 340, 420, 2100, 5600)
	want := map[string]float64{"sets.ns_per_op": 300, "shard.self_ns_per_op": 40, "pool.self_ns_per_op": 80,
		"wire.self_ns_per_op": 1680, "socket.self_ns_per_op": 3500}
	sum := 0.0
	for name, v := range self {
		if v != want[name] {
			t.Errorf("%s = %v, want %v", name, v, want[name])
		}
		sum += v
	}
	if sum != 5600 {
		t.Errorf("self times sum to %v, not the top rung's 5600", sum)
	}
}

func TestOracleScan(t *testing.T) {
	w := &workload{keys: 40, scanLen: 4}
	m := newOracle(w, 0) // owns 1, 5, 9, …: the keys ≡ 1 mod conns
	if conns != 4 {
		t.Fatal("the cases below are written for four connections")
	}
	for _, k := range []uint64{5, 9, 13, 21} {
		m.present[k] = true
	}
	cases := []struct {
		name string
		lo   uint64
		keys []uint64
		ok   bool
	}{
		{"own keys with other connections' between", 5, []uint64{5, 6, 9, 10}, true},
		{"full reply covers only up to its last key", 3, []uint64{4, 5, 9, 13}, true},
		{"short reply must reach the end", 9, []uint64{9, 13, 21}, true},
		{"short reply that dropped the tail", 9, []uint64{9, 13}, false},
		{"skipped own key", 5, []uint64{5, 10, 13, 14}, false},
		{"own key that is absent", 5, []uint64{5, 9, 13, 17}, false},
		{"not ascending", 5, []uint64{5, 9, 9, 13}, false},
		{"below lo", 9, []uint64{8, 9, 13, 21}, false},
		{"beyond the key range", 21, []uint64{21, 42}, false},
		{"empty set above lo", 23, nil, true},
	}
	for _, c := range cases {
		if got := m.scan(c.lo, c.keys); got != c.ok {
			t.Errorf("%s: scan(%d, %v) = %v, want %v", c.name, c.lo, c.keys, got, c.ok)
		}
	}
}

// TestReference pins what the timed readings are scaled by: the list walk
// finds the right node, the service answers, and closing it stops every
// goroutine it started.
func TestReference(t *testing.T) {
	r := newRNG(9)
	var clock atomic.Uint64
	ring := newRefRing(&r, 100, &clock)
	// Keys are ranks around the ring: 40 hops from the node of rank 70 pass
	// 70 … 99 and 0 … 9.
	var from int32
	for i := range ring.nodes {
		if ring.nodes[i].key == 70 {
			from = int32(i)
		}
	}
	if got, _ := ring.walk(from, 40); got != (70+99)*30/2+(0+9)*10/2 {
		t.Errorf("walk summed %d, want %d", got, (70+99)*30/2+(0+9)*10/2)
	}
	if got := clock.Load(); got != 3 {
		t.Errorf("40 hops committed %d windows, want 3", got)
	}
	ref, err := openReference(&workload{keys: 256, refWalk: 64})
	if err != nil {
		t.Fatal(err)
	}
	lat, err := ref.latencyFor(20 * time.Millisecond)
	if err != nil || lat <= 0 {
		t.Errorf("latencyFor = %v, %v", lat, err)
	}
	ref.close() // returns only once every connection's goroutine has
	if _, err := ref.callers[0].runUntil(nowNs() + 1e6); err == nil {
		t.Error("a closed reference still answers")
	}
}

// spec is the part of BENCHMARK.json the tests hold the program to.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics fails unless got is exactly the named metrics, units included.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", what, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is missing", what, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: %s = %v", what, m.Name, g.Value)
		}
	}
}

func checkCorrect(t *testing.T, what string, r *result) {
	t.Helper()
	for _, e := range r.errs {
		t.Errorf("%s: %v", what, e)
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Errorf("%s: %d of %d operations failed", what, r.failed, r.attempted)
	}
}

// TestQuickEndToEnd runs every workload end to end for correctness only:
// short slices, a token warm-up, every reply and the final state checked,
// and exactly BENCHMARK.json's end-to-end metrics printed.
func TestQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four servers")
	}
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	for i, sw := range s.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runEndToEnd(w, uint64(i+1), params{seconds: 0.4, setup: 30 * time.Millisecond, setupRef: 5 * time.Millisecond, warmOps: 50 * w.opsPerBurst(), calib: time.Millisecond})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkCorrect(t, w.name, res)
		checkMetrics(t, w.name, res.metrics, s.EndToEnd)
		for _, m := range s.EndToEnd {
			if res.metrics[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %v; end-to-end metrics are never 0", w.name, m.Name, res.metrics[m.Name].Value)
			}
		}
	}
}

// TestQuickLadder runs the traced run on a single-shard and (shrunk) on the
// sharded workload: every rung is correct, exactly BENCHMARK.json's
// per-layer metrics come out, the self times sum to the TCP rung, and the
// same seed replays the same operations.
func TestQuickLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a dozen servers")
	}
	s := readSpec(t)
	small, _ := findWorkload("batch-churn")
	sharded, _ := findWorkload("scan-sharded")
	shrunk := *sharded
	shrunk.keys = 4096
	for _, w := range []*workload{small, &shrunk} {
		p := params{ladderOps: 400 * w.opsPerBurst(), calib: time.Millisecond, dir: t.TempDir()}
		res, err := runLadder(w, 5, p)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkCorrect(t, w.name, res)
		checkMetrics(t, w.name, res.metrics, s.PerLayer)
		sum := 0.0
		for _, n := range []string{"sets.ns_per_op", "shard.self_ns_per_op", "pool.self_ns_per_op", "wire.self_ns_per_op", "socket.self_ns_per_op"} {
			sum += res.metrics[n].Value
		}
		var doc struct {
			Rungs []struct {
				Name    string
				NsPerOp float64 `json:"ns_per_op"`
			}
			Spans []span
		}
		buf, err := os.ReadFile(p.dir + "/trace-" + w.name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(buf, &doc); err != nil {
			t.Fatal(err)
		}
		for _, r := range doc.Rungs {
			if r.Name == "tcp" && math.Abs(sum-r.NsPerOp) > 1e-6*r.NsPerOp {
				t.Errorf("%s: self times sum to %v, rung (d) is %v", w.name, sum, r.NsPerOp)
			}
		}
		if len(doc.Spans) == 0 {
			t.Errorf("%s: no spans written", w.name)
		}
		ids := map[int]bool{}
		for _, sp := range doc.Spans {
			if ids[sp.ID] || sp.End < sp.Start || (sp.Parent != 0 && !ids[sp.Parent]) {
				t.Fatalf("%s: malformed span %+v", w.name, sp)
			}
			ids[sp.ID] = true
		}
		again, err := runLadder(w, 5, p)
		if err != nil {
			t.Fatal(err)
		}
		if again.attempted != res.attempted || again.notes["mix.set"] != res.notes["mix.set"] || again.notes["mix.del"] != res.notes["mix.del"] {
			t.Errorf("%s: same seed attempted %d then %d operations", w.name, res.attempted, again.attempted)
		}
	}
}
