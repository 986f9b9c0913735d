package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"hohtx/internal/pad"
)

// sampleShards spreads the sampling counters (power of two).
const sampleShards = 16

// DomainConfig parameterizes NewDomain.
type DomainConfig struct {
	// Name labels the domain in snapshots and metric exports (e.g.
	// "singly/TMHP"). Required for Serve; free-form otherwise.
	Name string
	// Threads sizes the per-tid span table and, on a domain that observes
	// transactions (TxProbe), the flight recorder's per-thread rings. Zero
	// means no span table, and recorder events from any tid share one
	// overflow ring.
	Threads int
	// SampleShift sets the sampling rate: one in 2^shift events is
	// recorded (0 = every event). Negative disables recording entirely.
	SampleShift int
}

// Domain is one observed component's export unit: a name, a sampling gate,
// named histograms, gauges, the per-tid span table and the serving layer's
// forensic sinks. What records a structure's transactions (the flight
// recorder, the attribution table) belongs to the domain's TxProbe, which
// only a domain that is asked for one carries. A data structure instance
// owns at most one Domain; a nil *Domain everywhere means "observability
// off" at the cost of a nil check.
type Domain struct {
	name    string
	threads int
	shift   int32 // fixed at construction: the gate reads it plainly
	ctrs    [sampleShards]struct {
		n atomic.Uint64
		_ pad.Line
	}

	mu     sync.Mutex
	hists  []*Histogram
	gauges []gaugeEntry
	tx     *TxProbe // nil until the first TxProbe call

	// spans is the per-tid request-span table (see span.go): the serving
	// layer arms tid's slot before running an operation, and the stm /
	// reclaim layers consult it to stamp their phases onto the request.
	// Sized by DomainConfig.Threads; empty means SpanOf is always nil.
	// Each slot is padded: set/clear runs on the request hot path.
	spans []paddedSpanSlot

	// slow and hot are the forensic sinks the serving layer attaches (see
	// slowlog.go, topk.go); the registry's /slowlog and /hotkeys handlers
	// read them. Written once at wiring time under mu.
	slow *Slowlog
	hot  []*HotKeys
}

type paddedSpanSlot struct {
	sp *Span
	_  pad.Line
}

type gaugeEntry struct {
	name string
	read func() uint64
}

// NewDomain creates a Domain.
func NewDomain(cfg DomainConfig) *Domain {
	d := &Domain{name: cfg.Name, threads: cfg.Threads, shift: int32(cfg.SampleShift)}
	if cfg.Threads > 0 {
		d.spans = make([]paddedSpanSlot, cfg.Threads)
	}
	return d
}

// Sampled is the per-event gate every instrumented site consults. With
// sampling disabled (negative shift) the cost is one load and one branch —
// the "disabled cost" the package comment promises. hint is any per-thread
// value (tid, slot hash) used to shard the sampling counters.
func (d *Domain) Sampled(hint uint64) bool {
	s := d.shift
	if s < 0 {
		return false
	}
	if s == 0 {
		return true
	}
	c := d.ctrs[hint&(sampleShards-1)].n.Add(1)
	return c&(1<<uint(s)-1) == 0
}

// Hist returns the domain's histogram with the given name, creating and
// registering it on first use. unit is a label for export ("ns", "ops").
func (d *Domain) Hist(name, unit string) *Histogram {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.histLocked(name, unit)
}

func (d *Domain) histLocked(name, unit string) *Histogram {
	for _, h := range d.hists {
		if h.name == name {
			return h
		}
	}
	h := NewHistogram(name, unit)
	d.hists = append(d.hists, h)
	return h
}

// Gauge registers a named gauge read through f at snapshot/export time.
// Re-registering a name replaces the reader.
func (d *Domain) Gauge(name string, f func() uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.gauges {
		if d.gauges[i].name == name {
			d.gauges[i].read = f
			return
		}
	}
	d.gauges = append(d.gauges, gaugeEntry{name: name, read: f})
}

// SetSlowlog attaches the domain's slowlog (the registry's /slowlog
// handler serves every attached one). Nil-safe.
func (d *Domain) SetSlowlog(s *Slowlog) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.slow = s
	d.mu.Unlock()
}

// SlowlogOf returns the attached slowlog, or nil.
func (d *Domain) SlowlogOf() *Slowlog {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.slow
}

// SetHotKeys attaches the per-shard hot-key sketches (index = shard; a
// single-shard server attaches one). Nil-safe.
func (d *Domain) SetHotKeys(hot []*HotKeys) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.hot = hot
	d.mu.Unlock()
}

// HotKeysOf returns the attached per-shard hot-key sketches, or nil.
func (d *Domain) HotKeysOf() []*HotKeys {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hot
}

// GaugeSnapshot is one gauge's point-in-time value.
type GaugeSnapshot struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// DomainSnapshot is the JSON-marshalable point-in-time state of a Domain
// (one element of /snapshot).
type DomainSnapshot struct {
	Name        string          `json:"name"`
	SampleShift int             `json:"sample_shift"`
	Events      uint64          `json:"events_recorded"`
	Histograms  []HistSnapshot  `json:"histograms"`
	Gauges      []GaugeSnapshot `json:"gauges,omitempty"`
	Aborts      []AttrEdge      `json:"who_aborted_whom,omitempty"`
}

// Hist returns the named histogram snapshot, if present.
func (s DomainSnapshot) Hist(name string) (HistSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistSnapshot{}, false
}

// Snapshot captures the domain's histograms and gauges and, when it
// observes transactions, its event count and attribution edges. Nil-safe:
// a nil domain yields a zero snapshot.
func (d *Domain) Snapshot() DomainSnapshot {
	if d == nil {
		return DomainSnapshot{}
	}
	d.mu.Lock()
	hists := append([]*Histogram(nil), d.hists...)
	gauges := append([]gaugeEntry(nil), d.gauges...)
	p := d.tx
	d.mu.Unlock()
	s := DomainSnapshot{Name: d.name, SampleShift: int(d.shift)}
	for _, h := range hists {
		s.Histograms = append(s.Histograms, h.Snapshot())
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: g.name, Value: g.read()})
	}
	if p != nil {
		s.Events = p.Rec.seq.Load()
		s.Aborts = p.Attr.Edges()
	}
	return s
}

// DumpFlight writes a human-readable postmortem: the tail of the flight
// recorder followed by the top attribution edges. tailEvents ≤ 0 dumps
// everything. A domain that observes no transactions (nil included) has
// neither, and writes nothing.
func (d *Domain) DumpFlight(w io.Writer, tailEvents int) {
	if d == nil {
		return
	}
	d.mu.Lock()
	p := d.tx
	d.mu.Unlock()
	if p == nil {
		return
	}
	fmt.Fprintf(w, "flight recorder (%s, sample shift %d):\n", d.name, d.shift)
	p.Rec.DumpTail(w, tailEvents)
	fmt.Fprintln(w, "who-aborted-whom:")
	p.Attr.DumpEdges(w, 16)
}

// Histogram names that someone outside this package refers to by symbol
// (the recording site, or a consumer pulling percentiles out of a
// snapshot). CI's "Every instrument has a reader" leg fails on one that
// nobody does; the serving layer's per-verb and batch series are named
// where ServeProbe registers them.
const (
	HistCommitNs   = "commit_latency_ns"
	HistReclaimOps = "reclaim_delay_ops"

	// How long an Acquire waited for a worker slot (internal/serve).
	HistLeaseWaitNs = "lease_wait_ns"

	// The keys one ASCEND pulled from the shards' cursors to emit what it
	// emitted (pulled ÷ emitted is the merge's waste), and per-scan cursor
	// behavior at the structure — window transactions per scan and how
	// many of them had to re-navigate by key because a concurrent writer
	// revoked the held position.
	HistServeAscendPulled = "serve_ascend_pulled"
	HistAscendWindows     = "ascend_windows"
	HistAscendRenavs      = "ascend_renavigations"
)

// TxProbe is the one structure-level instrument: what the stm runtime,
// the arena and the deferred-reclamation scheme of one structure record
// into. It owns the flight recorder and the cell→writer attribution table,
// so a domain nobody asks for a TxProbe (the server's, a lease pool's)
// carries neither.
type TxProbe struct {
	D        *Domain
	CommitNs *Histogram // whole-Atomic latency of committed transactions
	DelayOps *Histogram // retire→free distance in operation stamps
	Rec      *Recorder
	Attr     *AttrTable
}

// TxProbe returns the domain's transaction probe, building it on the first
// call; reclaim.Chassis makes that call once, at wiring time, so the hot
// path never takes the registry lock.
func (d *Domain) TxProbe() *TxProbe {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.tx == nil {
		d.tx = &TxProbe{
			D:        d,
			CommitNs: d.histLocked(HistCommitNs, "ns"),
			DelayOps: d.histLocked(HistReclaimOps, "ops"),
			Rec:      NewRecorder(d.threads, ringEvents),
			Attr:     NewAttrTable(),
		}
	}
	return d.tx
}

// Note logs a sampled lifecycle event that happens outside a transaction
// attempt: a retirement, a physical free. ref is the arena handle. Nil-safe,
// and split so that the nil check inlines: a detached site costs that check
// and no call.
func (p *TxProbe) Note(tid int, kind EventKind, ref uint64) {
	if p != nil {
		p.note(tid, kind, ref)
	}
}

func (p *TxProbe) note(tid int, kind EventKind, ref uint64) {
	if p.D.Sampled(uint64(tid)) {
		p.Rec.Emit(tid, kind, 0, ref, 0)
	}
}

// ServeProbe bundles what the network serving layer records into: one
// service-time histogram per mutating/reading protocol verb (slot leased →
// operation done; parse and reply rendering are the request span's lease
// and write phases), plus the batch-path histograms (MULTI and
// auto-batched bursts).
type ServeProbe struct {
	D        *Domain
	GetNs    *Histogram // GET service time: end − start − wait, parse to rendered reply
	SetNs    *Histogram // SET service time, as GetNs
	DelNs    *Histogram // DEL service time, as GetNs
	BatchNs  *Histogram // whole-batch service time (all sub-transactions)
	BatchOp  *Histogram // ops per executed sub-transaction, after routing and capacity splitting
	Splits   *Histogram // sub-transactions per wire batch (1 = unsplit)
	AscendNs *Histogram // whole-ASCEND service time (parse → merge → END written)

	pulled atomic.Pointer[Histogram] // see Pulled
}

// Pulled is the histogram of the keys one ASCEND pulled from the shards'
// cursors. Unlike its siblings it is registered by the first scan recorded
// into it: a histogram is 10 kB, and a server that is never asked to scan
// does not carry one more of them for it.
func (p *ServeProbe) Pulled() *Histogram {
	h := p.pulled.Load()
	if h == nil {
		h = p.D.Hist(HistServeAscendPulled, "keys")
		p.pulled.Store(h)
	}
	return h
}

// ServeProbe builds the server-facing probe.
func (d *Domain) ServeProbe() *ServeProbe {
	return &ServeProbe{
		D:        d,
		GetNs:    d.Hist("serve_get_ns", "ns"),
		SetNs:    d.Hist("serve_set_ns", "ns"),
		DelNs:    d.Hist("serve_del_ns", "ns"),
		BatchNs:  d.Hist("serve_batch_ns", "ns"),
		BatchOp:  d.Hist("batch_tx_ops", "ops"),
		Splits:   d.Hist("batch_splits", "txs"),
		AscendNs: d.Hist("serve_ascend_ns", "ns"),
	}
}
