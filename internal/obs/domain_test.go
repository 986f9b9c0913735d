package obs

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestSamplingGate(t *testing.T) {
	d := NewDomain(DomainConfig{Name: "gate", SampleShift: -1})
	for i := 0; i < 100; i++ {
		if d.Sampled(uint64(i)) {
			t.Fatal("negative shift must never sample")
		}
	}
	d = NewDomain(DomainConfig{Name: "gate", SampleShift: 0})
	for i := 0; i < 100; i++ {
		if !d.Sampled(uint64(i)) {
			t.Fatal("shift 0 must always sample")
		}
	}
	d = NewDomain(DomainConfig{Name: "gate", SampleShift: 3})
	hits := 0
	const n = 8000
	for i := 0; i < n; i++ {
		if d.Sampled(7) { // fixed hint: one counter, exact 1-in-8 cadence
			hits++
		}
	}
	if hits != n/8 {
		t.Fatalf("shift 3 sampled %d of %d, want exactly %d", hits, n, n/8)
	}
}

func TestDomainHistRegistry(t *testing.T) {
	d := NewDomain(DomainConfig{Name: "reg"})
	h1 := d.Hist(HistCommitNs, "ns")
	h2 := d.Hist(HistCommitNs, "ns")
	if h1 != h2 {
		t.Fatal("Hist must return the same histogram for the same name")
	}
	h1.Record(5)
	var depth atomic.Uint64
	depth.Store(17)
	d.Gauge("deferred_depth", depth.Load)
	s := d.Snapshot()
	if s.Name != "reg" {
		t.Fatalf("snapshot name %q", s.Name)
	}
	hs, ok := s.Hist(HistCommitNs)
	if !ok || hs.Count != 1 {
		t.Fatalf("snapshot missing commit hist: %+v", s)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 17 {
		t.Fatalf("gauge snapshot %+v", s.Gauges)
	}
	var nilDom *Domain
	if got := nilDom.Snapshot(); got.Name != "" || len(got.Histograms) != 0 {
		t.Fatal("nil domain snapshot must be zero")
	}
}

func TestRecorderOrderAndWrap(t *testing.T) {
	r := NewRecorder(2, 4)
	// 6 events on tid 0's 4-slot ring: the first two fall off.
	for i := 0; i < 6; i++ {
		r.Emit(0, EvBegin, 0, 0, uint64(i))
	}
	r.Emit(1, EvCommit, 0, 0, 3)
	r.Emit(-1, EvFree, 0, 42, 0) // overflow ring
	ev := r.Events()
	if len(ev) != 6 { // 4 surviving begins + commit + free
		t.Fatalf("got %d events, want 6: %+v", len(ev), ev)
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq <= ev[i-1].Seq {
			t.Fatalf("events not Seq-ordered at %d: %+v", i, ev)
		}
	}
	if ev[0].Aux != 2 {
		t.Fatalf("oldest surviving begin should be attempt 2, got %d", ev[0].Aux)
	}
	last := ev[len(ev)-1]
	if last.Kind != EvFree || last.Tid != -1 {
		t.Fatalf("overflow event misrouted: %+v", last)
	}

	var b strings.Builder
	r.DumpTail(&b, 3)
	out := b.String()
	if !strings.Contains(out, "3 earlier events elided") {
		t.Fatalf("tail dump missing elision note:\n%s", out)
	}
	if !strings.Contains(out, "free") {
		t.Fatalf("tail dump missing free event:\n%s", out)
	}
}

func TestAttribution(t *testing.T) {
	a := NewAttrTable()
	var cell atomic.Uint64
	if got := a.Owner(&cell); got != -1 {
		t.Fatalf("empty table owner = %d, want -1", got)
	}
	a.NoteWrite(&cell, 5)
	if got := a.Owner(&cell); got != 5 {
		t.Fatalf("owner = %d, want 5", got)
	}
	a.NoteAbort(2, 5)
	a.NoteAbort(2, 5)
	a.NoteAbort(7, -1)
	edges := a.Edges()
	if len(edges) != 2 {
		t.Fatalf("edges = %+v", edges)
	}
	if edges[0].Victim != 2 || edges[0].Owner != 5 || edges[0].Count != 2 {
		t.Fatalf("top edge %+v", edges[0])
	}
	if edges[1].Owner != -1 {
		t.Fatalf("unknown owner edge %+v", edges[1])
	}
	var b strings.Builder
	a.DumpEdges(&b, 10)
	if !strings.Contains(b.String(), "t5 aborted t2 ×2") {
		t.Fatalf("edge dump:\n%s", b.String())
	}
}

func TestPromExport(t *testing.T) {
	reg := NewRegistry()
	d := NewDomain(DomainConfig{Name: "singly/TMHP", Threads: 2})
	d.Hist(HistCommitNs, "ns").Record(100)
	d.Gauge("deferred_depth", func() uint64 { return 3 })
	reg.Register(d)
	var b strings.Builder
	reg.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE hohtx_singly_tmhp_commit_latency_ns histogram",
		`hohtx_singly_tmhp_commit_latency_ns_bucket{le="+Inf"} 1`,
		"hohtx_singly_tmhp_commit_latency_ns_sum 100",
		"hohtx_singly_tmhp_commit_latency_ns_count 1",
		"# TYPE hohtx_singly_tmhp_deferred_depth gauge",
		"hohtx_singly_tmhp_deferred_depth 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	reg.Unregister(d)
	b.Reset()
	reg.WriteProm(&b)
	if strings.Contains(b.String(), "singly_tmhp") {
		t.Fatalf("unregistered domain still exported:\n%s", b.String())
	}
	// The synthetic GC panel survives an empty registry: it is appended
	// to every snapshot, not registered.
	if !strings.Contains(b.String(), "hohtx_runtime_gc_gc_cycles") {
		t.Fatalf("GC panel missing from empty registry:\n%s", b.String())
	}
}

func TestDumpFlight(t *testing.T) {
	d := NewDomain(DomainConfig{Name: "dump", Threads: 2})
	var b strings.Builder
	if d.DumpFlight(&b, 0); b.Len() != 0 {
		t.Fatalf("a domain with no TxProbe dumped:\n%s", b.String())
	}
	p := d.TxProbe()
	p.Rec.Emit(0, EvBegin, 0, 0, 1)
	p.Rec.Emit(0, EvAbort, 1, 0xdead, ^uint64(0))
	p.Attr.NoteAbort(0, -1)
	d.DumpFlight(&b, 0)
	out := b.String()
	for _, want := range []string{"flight recorder (dump", "begin", "cause=read-conflict", "who-aborted-whom", "aborted t0"} {
		if !strings.Contains(out, want) {
			t.Errorf("flight dump missing %q:\n%s", want, out)
		}
	}
}

// TestServerDomainRetainsNoRecorder pins what a domain that observes no
// transactions costs: the server's, with its ServeProbe, retains its seven
// histograms and little else — no flight rings, no attribution table
// (173 kB at Threads: 2 when NewDomain built both for everyone).
func TestServerDomainRetainsNoRecorder(t *testing.T) {
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	d := NewDomain(DomainConfig{Name: "server", Threads: 2})
	p := d.ServeProbe()
	after := live()
	hists := uint64(7 * unsafe.Sizeof(Histogram{}))
	if after > before+hists+16<<10 {
		t.Fatalf("server domain + ServeProbe retain %d B; seven histograms are %d B and the budget beside them 16 kB",
			after-before, hists)
	}
	runtime.KeepAlive(p)
	// The recorder and the table exist once somebody observes transactions.
	if tx := d.TxProbe(); tx.Rec == nil || tx.Attr == nil || d.TxProbe() != tx {
		t.Fatal("TxProbe must build the recorder and the table, once")
	}
}
