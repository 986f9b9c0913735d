package obs

import (
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// newSpan returns a span armed for verb, running from now.
func newSpan(verb string) *Span {
	sp := &Span{}
	sp.Reset(verb, Now())
	return sp
}

// add charges weight w to key in t, as a batch of one.
func add(t *TopK, key, w uint64) { t.AddAll([]KeyWeight{{key, w}}) }

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

// TestSpanLifecyclePanics pins the lifecycle discipline the torture
// harness relies on: a live span cannot be re-armed (a leaked span), and
// a span cannot finish twice (two paths would publish one request).
func TestSpanLifecyclePanics(t *testing.T) {
	sp := newSpan("GET")
	mustPanic(t, "Reset on live span", func() { sp.Reset("GET", Now()) })
	sp.Finish(Now())
	mustPanic(t, "second Finish", func() { sp.Finish(Now()) })
	mustPanic(t, "Finish on never-started span", func() { new(Span).Finish(Now()) })

	// After a clean Finish, Reset re-arms and the cycle repeats.
	sp.Reset("SET", Now())
	if sp.Verb() != "SET" {
		t.Fatalf("Verb after Reset = %q, want SET", sp.Verb())
	}
	sp.Finish(Now())
}

// TestSpanFinishPartitionsTotal: the total is end − start on the caller's
// stamps, and Lease is whatever the phases stamped by the other layers
// (wait, attempts, serial, reclaim, write) leave of it — so the six sum to
// the total exactly. A caller that stamps more than the total (overlapping
// stamps: a bug) gets Lease clamped at zero rather than an underflow, and
// the stamped phases are never touched.
func TestSpanFinishPartitionsTotal(t *testing.T) {
	sp := new(Span)
	sp.Reset("GET", 1000)
	sp.Add(SpanWait, 5)
	sp.Add(SpanAttempts, 30)
	sp.Add(SpanSerial, 20)
	sp.Add(SpanReclaim, 10)
	sp.Add(SpanWrite, 15)
	if got := sp.Finish(1100); got != 100 || sp.TotalNs() != 100 {
		t.Errorf("total = %d / %d, want 100", got, sp.TotalNs())
	}
	if got := sp.Phase(SpanLease); got != 20 {
		t.Errorf("Lease = %d, want the remainder 20", got)
	}
	var sum uint64
	for p := SpanPhase(0); p < NumSpanPhases; p++ {
		sum += sp.Phase(p)
	}
	if sum != sp.TotalNs() {
		t.Errorf("phases sum to %d, total is %d", sum, sp.TotalNs())
	}

	sp.Reset("GET", 0)
	sp.Add(SpanAttempts, 50)
	sp.Finish(10)
	if got := sp.Phase(SpanLease); got != 0 {
		t.Errorf("Lease underflow clamped = %d, want 0", got)
	}
	if got := sp.Phase(SpanAttempts); got != 50 {
		t.Errorf("Attempts = %d, want 50 (Finish must not touch stamped phases)", got)
	}
}

// TestConnForensicStateSize pins what a connection carries for forensics —
// its span and its burst scratch — under the 1 KiB the serving layer
// budgets per connection.
func TestConnForensicStateSize(t *testing.T) {
	if got := unsafe.Sizeof(Span{}) + unsafe.Sizeof(Burst{}); got > 1024 {
		t.Errorf("Span + Burst = %d bytes, want <= 1024", got)
	}
}

// TestSpanBoundedCapture: keys past capacity truncate while the true
// count is kept, owners deduplicate into the bounded list, and cause
// ordinals tally under their stm-mirrored names.
func TestSpanBoundedCapture(t *testing.T) {
	sp := newSpan("MULTI")
	for k := uint64(1); k <= 10; k++ {
		sp.AddKey(k)
	}
	keys, n := sp.Keys()
	if len(keys) != spanMaxKeys || n != 10 {
		t.Errorf("Keys() = %d retained, %d true; want %d, 10", len(keys), n, spanMaxKeys)
	}

	for i := 0; i < 3; i++ {
		sp.NoteAbort(3, 7) // write-lock, owner 7 each time
	}
	sp.NoteAbort(1, -1) // read-conflict, unknown owner
	for o := 10; o < 20; o++ {
		sp.NoteAbort(2, o) // validation, ten distinct owners
	}
	if got := sp.Aborts(); got != 14 {
		t.Errorf("Aborts() = %d, want 14", got)
	}
	owners := sp.Owners()
	if len(owners) != spanMaxOwners || owners[0] != 7 {
		t.Errorf("Owners() = %v, want %d entries led by 7", owners, spanMaxOwners)
	}
	causes := sp.Causes()
	want := map[string]uint32{"read-conflict": 1, "validation": 10, "write-lock": 3}
	if len(causes) != len(want) {
		t.Fatalf("Causes() = %v, want %v", causes, want)
	}
	for _, c := range causes {
		if want[c.Cause] != c.Count {
			t.Errorf("cause %s = %d, want %d", c.Cause, c.Count, want[c.Cause])
		}
	}

	sp.MarkShard(0)
	sp.MarkShard(2)
	sp.MarkShard(999) // clamps to the top bit rather than corrupting
	if got := sp.Shards(); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 63 {
		t.Errorf("Shards() = %v, want [0 2 63]", got)
	}

	sp.Add(SpanWait, 5)
	sp.Add(SpanWrite, 9)
	if got := sp.WorstPhase(); got != SpanWrite {
		t.Errorf("WorstPhase = %v, want write", got)
	}
	sp.Finish(Now())
}

// TestSpanTableBounds: arming outside the table (bad tid, nil domain,
// domain built without Threads) is a no-op, not a panic — unwired layers
// must cost one branch.
func TestSpanTableBounds(t *testing.T) {
	var nilDom *Domain
	nilDom.SetSpan(0, nil)
	if nilDom.SpanOf(0) != nil {
		t.Error("nil domain SpanOf != nil")
	}

	d := NewDomain(DomainConfig{Name: "t"}) // Threads unset: no span table
	sp := newSpan("GET")
	d.SetSpan(0, sp)
	if d.SpanOf(0) != nil {
		t.Error("span table absent but SpanOf returned a span")
	}

	d2 := NewDomain(DomainConfig{Name: "t2", Threads: 2})
	d2.SetSpan(-1, sp)
	d2.SetSpan(2, sp)
	if d2.SpanOf(-1) != nil || d2.SpanOf(2) != nil {
		t.Error("out-of-range tid stored a span")
	}
	d2.SetSpan(1, sp)
	if d2.SpanOf(1) != sp {
		t.Error("in-range span not returned")
	}
	d2.SetSpan(1, nil)
	if d2.SpanOf(1) != nil {
		t.Error("cleared span still returned")
	}
	sp.Finish(Now())
}

// slowSpan fabricates a span that finished now with a controlled total —
// internal tests drive the slowlog's value-based admission
// deterministically instead of sleeping real wall-clock durations.
func slowSpan(verb string, totalNs uint64) *Span {
	return slowSpanAt(verb, totalNs, 0)
}

// slowSpanAt is slowSpan finishing age after now: the tests' way of
// letting a window grow old without waiting for it.
func slowSpanAt(verb string, totalNs uint64, age time.Duration) *Span {
	return &Span{verb: verb, totalNs: totalNs, end: Now() + int64(age), finished: true}
}

// TestSlowlogAdmission: the log keeps the N slowest of a window sorted
// slowest-first, and once full the Nth-slowest total becomes the atomic
// admission floor that rejects faster requests without the mutex.
func TestSlowlogAdmission(t *testing.T) {
	s := NewSlowlog(3, time.Hour)
	for _, total := range []uint64{10, 30, 20, 40, 5} {
		s.Observe(slowSpan("GET", total))
	}
	got := s.Entries(0)
	if len(got) != 3 || got[0].TotalNs != 40 || got[1].TotalNs != 30 || got[2].TotalNs != 20 {
		t.Fatalf("Entries = %+v, want totals [40 30 20]", got)
	}
	if f := s.gate.floor.Load(); f != 20 {
		t.Errorf("admission floor = %d, want 20", f)
	}
	s.Observe(slowSpan("GET", 15)) // below the floor: rejected on the fast path
	if n := len(s.Entries(0)); n != 3 {
		t.Errorf("below-floor observe changed the window: %d entries", n)
	}
	s.Observe(slowSpan("GET", 25)) // evicts the 20
	got = s.Entries(2)
	if len(got) != 2 || got[0].TotalNs != 40 || got[1].TotalNs != 30 {
		t.Errorf("Entries(2) = %+v, want totals [40 30]", got)
	}
	if f := s.gate.floor.Load(); f != 25 {
		t.Errorf("floor after eviction = %d, want 25", f)
	}
}

// TestSlowlogRotation: an aged-out window moves to prev (a fresh rotation
// never serves an empty log), and two stale windows clear prev too.
func TestSlowlogRotation(t *testing.T) {
	s := NewSlowlog(4, time.Minute)
	s.Observe(slowSpan("GET", 100))
	s.Observe(slowSpanAt("SET", 50, 90*time.Second)) // one window later

	got := s.Entries(0)
	if len(got) != 2 || got[0].TotalNs != 100 || got[1].TotalNs != 50 {
		t.Fatalf("after rotation Entries = %+v, want old 100 in prev + new 50 in cur", got)
	}
	if f := s.gate.floor.Load(); f != 0 {
		t.Errorf("floor after rotation = %d, want 0 (window restarts empty)", f)
	}

	s.mu.Lock()
	s.curStart = Now() - int64(3*time.Minute) // two windows stale
	s.mu.Unlock()
	if got := s.Entries(0); len(got) != 0 {
		t.Errorf("two stale windows still served %d entries", len(got))
	}
}

// TestSlowlogStaleFloorExpires: a storm fills a window and leaves a high
// admission floor; the calm traffic after it is all below that floor. The
// floor must age out with its window on the admission fast path itself —
// no Entries call, no request slow enough to reach the lock — or the log
// would serve the storm as current forever and drop every new outlier.
func TestSlowlogStaleFloorExpires(t *testing.T) {
	s := NewSlowlog(3, time.Minute)
	for _, total := range []uint64{9000, 8000, 7000} {
		s.Observe(slowSpan("SET", total))
	}
	if f := s.gate.floor.Load(); f != 7000 {
		t.Fatalf("floor after the storm = %d, want 7000", f)
	}
	s.Observe(slowSpanAt("GET", 40, 30*time.Second)) // same window: turned away
	s.Observe(slowSpanAt("GET", 50, 90*time.Second)) // the window has aged out

	s.mu.Lock()
	cur, prev := s.cur, s.prev
	s.mu.Unlock()
	if len(cur) != 1 || cur[0].TotalNs != 50 {
		t.Errorf("cur = %+v, want the one modest request observed after the window aged", cur)
	}
	if len(prev) != 3 || prev[0].TotalNs != 9000 {
		t.Errorf("prev = %+v, want the storm's three entries", prev)
	}
}

// TestSlowlogEntrySnapshot: the entry freezes the span's breakdown and
// attribution at capture time.
func TestSlowlogEntrySnapshot(t *testing.T) {
	sp, start := new(Span), Now()
	sp.Reset("MULTI", start)
	sp.AddKey(7)
	sp.AddKey(9)
	sp.MarkShard(1)
	sp.Add(SpanWait, 400)
	sp.NoteAttempt(false)
	sp.NoteAttempt(true)
	sp.NoteAbort(3, 2)
	sp.Finish(start + 500) // leaves a Lease remainder of 100
	e := entryFromSpan(sp)
	if e.Verb != "MULTI" || e.KeyN != 2 || len(e.Keys) != 2 || e.Keys[1] != 9 {
		t.Errorf("entry identity = %+v", e)
	}
	if e.WaitNs != 400 || e.LeaseNs != 100 || e.TotalNs != 500 || e.WorstPhase != "wait" {
		t.Errorf("entry breakdown: wait=%d lease=%d total=%d worst=%s, want 400/100/500/wait", e.WaitNs, e.LeaseNs, e.TotalNs, e.WorstPhase)
	}
	if d := time.Since(time.Unix(0, e.UnixNs)); d < 0 || d > time.Minute {
		t.Errorf("entry wall time is %s from now, want the admission's", d)
	}
	if e.Attempts != 2 || e.SerialTxs != 1 {
		t.Errorf("entry attempts = %d/%d, want 2/1", e.Attempts, e.SerialTxs)
	}
	if len(e.Owners) != 1 || e.Owners[0] != 2 || len(e.Aborts) != 1 || e.Aborts[0].Cause != "write-lock" {
		t.Errorf("entry attribution = owners %v aborts %v", e.Owners, e.Aborts)
	}
}

// TestTopKSpaceSaving pins the space-saving sketch's semantics: an
// untracked key evicts the current minimum and inherits its count as an
// error bound, the guarantee true ∈ [Count−Err, Count] holds, and a key
// whose true weight exceeds N/k is always retained.
func TestTopKSpaceSaving(t *testing.T) {
	k := NewTopK(2)
	add(k, 1, 3)
	add(k, 2, 2)
	add(k, 3, 1) // evicts key 2 (min, count 2): key 3 reports 3 with err 2
	items := k.Items()
	if len(items) != 2 {
		t.Fatalf("Items = %+v, want 2 entries", items)
	}
	if items[0].Key != 1 || items[0].Count != 3 || items[0].Err != 0 {
		t.Errorf("retained key = %+v, want key 1 count 3 err 0", items[0])
	}
	if items[1].Key != 3 || items[1].Count != 3 || items[1].Err != 2 {
		t.Errorf("evictor = %+v, want key 3 count 3 err 2", items[1])
	}
	// True count of key 3 is 1: within [Count-Err, Count] = [1, 3].
	if lo := items[1].Count - items[1].Err; lo > 1 || items[1].Count < 1 {
		t.Errorf("error-bound guarantee broken: true 1 outside [%d, %d]", lo, items[1].Count)
	}

	// Heavy hitter: key 1's true weight (13 of N=19) far exceeds N/k; it
	// must still be present — and ranked first — after churn.
	for i := uint64(10); i < 20; i++ {
		add(k, i, 1)
	}
	add(k, 1, 10)
	items = k.Items()
	if items[0].Key != 1 {
		t.Errorf("heavy hitter evicted: %+v", items)
	}
}

// TestTopKAddAllEqualsAdds: a batch applied under one lock leaves the
// sketch exactly as the same sequence of single Adds would — tracked keys,
// counts, inherited error bounds and eviction order — whatever the batch
// boundaries; zero weights are no-ops in both.
func TestTopKAddAllEqualsAdds(t *testing.T) {
	seq := make([]KeyWeight, 400)
	rng := uint64(42)
	for i := range seq {
		rng = rng*6364136223846793005 + 1442695040888963407
		seq[i] = KeyWeight{Key: 1 + (rng>>33)%23, W: (rng >> 20) % 5} // 23 keys through 4 slots: evictions throughout
	}
	for _, batch := range []int{1, 3, 16, len(seq)} {
		one, all := NewTopK(4), NewTopK(4)
		for i := 0; i < len(seq); i += batch {
			chunk := seq[i:min(i+batch, len(seq))]
			for _, it := range chunk {
				add(one, it.Key, it.W)
			}
			all.AddAll(chunk)
			if a, b := one.Items(), all.Items(); !reflect.DeepEqual(a, b) {
				t.Fatalf("batch %d, after %d items: AddAll %+v, Adds %+v", batch, i+len(chunk), b, a)
			}
		}
		var evicted bool
		for _, it := range all.Items() {
			evicted = evicted || it.Err != 0
		}
		if !evicted {
			t.Fatalf("batch %d: no eviction happened; the sequence does not test error bounds", batch)
		}
	}
}

// TestBurstPublishesInOrder: what a Burst publishes — at Publish, or early
// because its scratch filled — is what charging each key directly would
// have left: per-shard sketches equal to in-order Adds, aborts only where
// there were aborts, nothing published twice.
func TestBurstPublishesInOrder(t *testing.T) {
	direct := []*HotKeys{NewHotKeys(4), NewHotKeys(4)}
	hot := []*HotKeys{NewHotKeys(4), NewHotKeys(4)}
	b := NewBurst(hot)
	rng := uint64(7)
	for i := 0; i < 10*burstKeys+3; i++ { // overflows the scratch many times over
		rng = rng*6364136223846793005 + 1442695040888963407
		shard, key, ns, aborts := int(rng>>40)%2, 1+(rng>>33)%19, 100+(rng>>20)%900, (rng>>10)%3
		b.Key(shard, key, ns, aborts)
		add(direct[shard].Latency, key, ns)
		add(direct[shard].Aborts, key, aborts)
		if i%7 == 0 {
			b.Publish()
		}
	}
	b.Publish()
	b.Publish() // nothing pending: publishes nothing twice
	for sh := range hot {
		if got, want := hot[sh].Snapshot(sh), direct[sh].Snapshot(sh); !reflect.DeepEqual(got, want) {
			t.Errorf("shard %d sketches: burst %+v, direct %+v", sh, got, want)
		}
	}
}

// TestRollupHot: per-shard sketches merge by summing counts and error
// bounds per key, sorted like a single sketch.
func TestRollupHot(t *testing.T) {
	a := NewHotKeys(4)
	b := NewHotKeys(4)
	add(a.Aborts, 1, 5)
	add(a.Latency, 1, 100)
	add(b.Aborts, 2, 9)
	add(b.Latency, 2, 50)
	r := RollupHot([]*HotKeys{a, nil, b})
	if r.Shard != -1 {
		t.Errorf("rollup shard = %d, want -1", r.Shard)
	}
	if len(r.ByAborts) != 2 || r.ByAborts[0].Key != 2 || r.ByAborts[0].Count != 9 {
		t.Errorf("rollup ByAborts = %+v, want key 2 (9) first", r.ByAborts)
	}
	if len(r.ByLatency) != 2 || r.ByLatency[0].Key != 1 || r.ByLatency[0].Count != 100 {
		t.Errorf("rollup ByLatency = %+v, want key 1 (100) first", r.ByLatency)
	}
}

// TestHistSnapshotEdgeCases: the quantile/mean paths that used to be able
// to divide by zero or feed NaN into a float→uint64 conversion.
func TestHistSnapshotEdgeCases(t *testing.T) {
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 || empty.Quantile(math.NaN()) != 0 {
		t.Error("empty snapshot quantile != 0")
	}

	h := NewHistogram("t", "ns")
	h.Record(5)
	h.Record(100)
	s := h.Snapshot()
	min := s.Quantile(0.01)
	for _, q := range []float64{0, -1, math.NaN()} {
		if got := s.Quantile(q); got != min {
			t.Errorf("Quantile(%v) = %d, want minimum rank %d", q, got, min)
		}
	}
	for _, q := range []float64{1, 2, math.Inf(1)} {
		if got := s.Quantile(q); got != 100 {
			t.Errorf("Quantile(%v) = %d, want recorded max 100", q, got)
		}
	}

	// Single-bucket population: every quantile lands in that bucket, and
	// the top bucket reports the true max rather than its 2^k edge.
	h1 := NewHistogram("t1", "ns")
	for i := 0; i < 10; i++ {
		h1.Record(70) // bucket (64, 128]
	}
	s1 := h1.Snapshot()
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := s1.Quantile(q); got != 70 {
			t.Errorf("single-bucket Quantile(%v) = %d, want true max 70", q, got)
		}
	}
}

// TestServeProbeHistograms: the probe's per-verb histograms are the
// domain-registered serve_*_ns instruments (recording through the probe
// is visible in the domain snapshot under the canonical names), and
// repeated probe construction returns the same instruments rather than
// forking the counts.
func TestServeProbeHistograms(t *testing.T) {
	d := NewDomain(DomainConfig{Name: "srv", Threads: 2})
	p := d.ServeProbe()
	p.GetNs.RecordAt(0, 100)
	p.SetNs.RecordAt(1, 200)
	p.SetNs.RecordAt(0, 300)
	p.DelNs.Record(400)
	p.AscendNs.Record(500)
	p.Pulled().Record(76)

	want := map[string]uint64{
		"serve_get_ns":        1,
		"serve_set_ns":        2,
		"serve_del_ns":        1,
		"serve_ascend_ns":     1,
		HistServeAscendPulled: 1,
		"serve_batch_ns":      0,
		"batch_tx_ops":        0,
		"batch_splits":        0,
	}
	snap := d.Snapshot()
	seen := map[string]uint64{}
	for _, h := range snap.Histograms {
		seen[h.Name] = h.Count
	}
	for name, count := range want {
		got, ok := seen[name]
		if !ok {
			t.Errorf("domain snapshot missing %s", name)
			continue
		}
		if got != count {
			t.Errorf("%s count = %d, want %d", name, got, count)
		}
	}

	p2 := d.ServeProbe()
	if p2.GetNs != p.GetNs {
		t.Error("second ServeProbe forked a new serve_get_ns histogram")
	}
	p2.GetNs.Record(1)
	if got := p.GetNs.Snapshot().Count; got != 2 {
		t.Errorf("shared histogram count = %d, want 2", got)
	}
}
