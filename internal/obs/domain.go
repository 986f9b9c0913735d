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
	// Threads sizes the flight recorder's per-thread rings. Zero means
	// recorder events from any tid share one overflow ring.
	Threads int
	// SampleShift sets the initial sampling rate: one in 2^shift events
	// is recorded (0 = every event). Negative disables recording
	// entirely; SetSampleShift changes it at runtime.
	SampleShift int
	// RingEvents is the per-thread flight-recorder capacity in events
	// (default 256).
	RingEvents int
}

// Domain is one observed component's instrument bundle: a sampling gate,
// named histograms, gauges, a flight recorder and an abort-attribution
// table. A data structure instance owns at most one Domain; a nil *Domain
// everywhere means "observability off" at the cost of a nil check.
type Domain struct {
	name  string
	shift atomic.Int32
	ctrs  [sampleShards]struct {
		n atomic.Uint64
		_ pad.Line
	}

	mu     sync.Mutex
	hists  []*Histogram
	gauges []gaugeEntry

	rec  *Recorder
	attr *AttrTable

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
	d := &Domain{
		name: cfg.Name,
		rec:  NewRecorder(cfg.Threads, cfg.RingEvents),
		attr: NewAttrTable(),
	}
	if cfg.Threads > 0 {
		d.spans = make([]paddedSpanSlot, cfg.Threads)
	}
	d.shift.Store(int32(cfg.SampleShift))
	return d
}

// Name returns the domain's label.
func (d *Domain) Name() string { return d.name }

// SetSampleShift changes the sampling rate at runtime: one in 2^shift
// events is recorded; negative disables recording.
func (d *Domain) SetSampleShift(shift int) { d.shift.Store(int32(shift)) }

// SampleShift returns the current sampling shift.
func (d *Domain) SampleShift() int { return int(d.shift.Load()) }

// Sampled is the per-event gate every instrumented site consults. With
// sampling disabled (negative shift) the cost is one atomic load and one
// branch — the "disabled cost" the package comment promises. hint is any
// per-thread value (tid, slot hash) used to shard the sampling counters.
func (d *Domain) Sampled(hint uint64) bool {
	s := d.shift.Load()
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

// Recorder returns the domain's flight recorder.
func (d *Domain) Recorder() *Recorder { return d.rec }

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

// Attr returns the domain's abort-attribution table.
func (d *Domain) Attr() *AttrTable { return d.attr }

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

// Snapshot captures the domain's histograms, gauges and attribution
// edges. Nil-safe: a nil domain yields a zero snapshot.
func (d *Domain) Snapshot() DomainSnapshot {
	if d == nil {
		return DomainSnapshot{}
	}
	d.mu.Lock()
	hists := append([]*Histogram(nil), d.hists...)
	gauges := append([]gaugeEntry(nil), d.gauges...)
	d.mu.Unlock()
	s := DomainSnapshot{
		Name:        d.name,
		SampleShift: int(d.shift.Load()),
		Events:      d.rec.seq.Load(),
	}
	for _, h := range hists {
		s.Histograms = append(s.Histograms, h.Snapshot())
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: g.name, Value: g.read()})
	}
	s.Aborts = d.attr.Edges()
	return s
}

// DumpFlight writes a human-readable postmortem: the tail of the flight
// recorder followed by the top attribution edges. tailEvents ≤ 0 dumps
// everything.
func (d *Domain) DumpFlight(w io.Writer, tailEvents int) {
	if d == nil {
		return
	}
	fmt.Fprintf(w, "flight recorder (%s, sample shift %d):\n", d.name, d.shift.Load())
	d.rec.DumpTail(w, tailEvents)
	fmt.Fprintln(w, "who-aborted-whom:")
	d.attr.DumpEdges(w, 16)
}

// Standard histogram names, shared between the recording sites and the
// consumers that pull percentiles out of snapshots.
const (
	HistCommitNs   = "commit_latency_ns"
	HistBackoffNs  = "backoff_ns"
	HistHoldNs     = "reservation_hold_ns"
	HistReuseOps   = "free_reuse_dist_ops"
	HistReclaimOps = "reclaim_delay_ops"

	// Serving-layer names (internal/serve): how long an Acquire waited
	// for a worker slot, and the set operation's service time per
	// protocol verb (slot leased → operation done; parse and reply
	// rendering are the request span's lease and write phases).
	HistLeaseWaitNs = "lease_wait_ns"
	HistServeGetNs  = "serve_get_ns"
	HistServeSetNs  = "serve_set_ns"
	HistServeDelNs  = "serve_del_ns"

	// Batch names (internal/serve): whole-batch service time, executed
	// sub-transaction sizes in ops (after shard routing and capacity
	// splitting), and the number of sub-transactions each wire batch was
	// split into (1 = served whole).
	HistServeBatchNs = "serve_batch_ns"
	HistBatchOps     = "batch_tx_ops"
	HistBatchSplits  = "batch_splits"

	// Scan names: whole-ASCEND service time at the server (parse → merge
	// → END written) and the keys it pulled from the shards' cursors to
	// emit what it emitted (pulled ÷ emitted is the merge's waste), and
	// per-scan cursor behavior at the structure — window transactions per
	// scan and how many of them had to re-navigate by key because a
	// concurrent writer revoked the held position. Renavigations are the
	// cursor-vs-writer interference the scan benchmarks measure.
	HistServeAscendNs     = "serve_ascend_ns"
	HistServeAscendPulled = "serve_ascend_pulled"
	HistAscendWindows     = "ascend_windows"
	HistAscendRenavs      = "ascend_renavigations"
)

// TxProbe bundles what the stm runtime records into. Obtained from a
// Domain once at wiring time so the hot path never takes the registry
// lock.
type TxProbe struct {
	D         *Domain
	CommitNs  *Histogram // whole-Atomic latency of committed transactions
	BackoffNs *Histogram // per-backoff delay between attempts
	Rec       *Recorder
	Attr      *AttrTable
}

// TxProbe builds the stm-facing probe.
func (d *Domain) TxProbe() *TxProbe {
	return &TxProbe{
		D:         d,
		CommitNs:  d.Hist(HistCommitNs, "ns"),
		BackoffNs: d.Hist(HistBackoffNs, "ns"),
		Rec:       d.rec,
		Attr:      d.attr,
	}
}

// AllocProbe bundles what the arena records into.
type AllocProbe struct {
	D         *Domain
	ReuseDist *Histogram // free→reuse distance in arena ops
	Rec       *Recorder
}

// AllocProbe builds the arena-facing probe.
func (d *Domain) AllocProbe() *AllocProbe {
	return &AllocProbe{D: d, ReuseDist: d.Hist(HistReuseOps, "ops"), Rec: d.rec}
}

// HoldProbe bundles what the reservation hold-time wrapper records into.
type HoldProbe struct {
	D      *Domain
	HoldNs *Histogram // reservation acquire→release/revoke wall time
}

// HoldProbe builds the core-facing probe.
func (d *Domain) HoldProbe() *HoldProbe {
	return &HoldProbe{D: d, HoldNs: d.Hist(HistHoldNs, "ns")}
}

// ReclaimProbe bundles what the deferred-reclamation schemes record into.
type ReclaimProbe struct {
	D        *Domain
	DelayOps *Histogram // retire→free distance in operation stamps
	Rec      *Recorder
}

// ReclaimProbe builds the reclaim-facing probe.
func (d *Domain) ReclaimProbe() *ReclaimProbe {
	return &ReclaimProbe{D: d, DelayOps: d.Hist(HistReclaimOps, "ops"), Rec: d.rec}
}

// ServeProbe bundles what the network serving layer records into: one
// service-time histogram per mutating/reading protocol verb, plus the
// batch-path histograms (MULTI and auto-batched bursts).
type ServeProbe struct {
	D        *Domain
	GetNs    *Histogram // GET service time
	SetNs    *Histogram // SET service time
	DelNs    *Histogram // DEL service time
	BatchNs  *Histogram // whole-batch service time (all sub-transactions)
	BatchOp  *Histogram // ops per executed sub-transaction
	Splits   *Histogram // sub-transactions per wire batch (1 = unsplit)
	AscendNs *Histogram // whole-ASCEND service time (merge + stream)

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
		GetNs:    d.Hist(HistServeGetNs, "ns"),
		SetNs:    d.Hist(HistServeSetNs, "ns"),
		DelNs:    d.Hist(HistServeDelNs, "ns"),
		BatchNs:  d.Hist(HistServeBatchNs, "ns"),
		BatchOp:  d.Hist(HistBatchOps, "ops"),
		Splits:   d.Hist(HistBatchSplits, "txs"),
		AscendNs: d.Hist(HistServeAscendNs, "ns"),
	}
}
