package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hohtx/internal/pad"
)

// slowGate is what every request loads to be turned away: the admission
// threshold and the instant the window it belongs to ages out. Both sit on
// one cache line of their own, which must not false-share with the mutex
// the admitted few contend on.
type slowGate struct {
	floor  atomic.Uint64 // the window's N-th slowest total; 0 until it fills
	expiry atomic.Int64  // Now() stamp at which the window rotates
	_      pad.Line
}

// DefaultSlowlogSize is the serving layer's per-window entry capacity and
// DefaultSlowlogWindow its rotation period.
const (
	DefaultSlowlogSize   = 32
	DefaultSlowlogWindow = 10 * time.Second
)

// SlowEntry is one captured slow request: everything a postmortem needs
// to explain the latency without re-running the workload — the verb and
// keys identify the request, the shard set and phase breakdown localize
// the time, and the abort causes/owners name the who-aborted-whom chain.
type SlowEntry struct {
	Seq     uint64   `json:"seq"`     // capture order, process-wide per slowlog
	UnixNs  int64    `json:"unix_ns"` // wall-clock capture time
	Verb    string   `json:"verb"`
	Keys    []uint64 `json:"keys,omitempty"`
	KeyN    int      `json:"key_n"` // true key count (Keys truncates)
	Shards  []int    `json:"shards,omitempty"`
	TotalNs uint64   `json:"total_ns"`

	WaitNs     uint64 `json:"wait_ns"`
	LeaseNs    uint64 `json:"lease_ns"`
	AttemptsNs uint64 `json:"attempts_ns"`
	SerialNs   uint64 `json:"serial_ns"`
	ReclaimNs  uint64 `json:"reclaim_ns"`
	WriteNs    uint64 `json:"write_ns"`
	WorstPhase string `json:"worst_phase"`

	Attempts  uint32       `json:"attempts"`
	SerialTxs uint32       `json:"serial_txs"`
	Aborts    []CauseCount `json:"aborts,omitempty"`
	Owners    []int32      `json:"abort_owners,omitempty"`
}

// entryFromSpan freezes a finished span into a slowlog entry. It runs for
// the admitted few only, so this is where the wall clock is read.
func entryFromSpan(sp *Span) SlowEntry {
	keys, keyN := sp.Keys()
	attempts, serial := sp.Attempts()
	return SlowEntry{
		UnixNs:     time.Now().UnixNano(),
		Verb:       sp.Verb(),
		Keys:       append([]uint64(nil), keys...),
		KeyN:       keyN,
		Shards:     sp.Shards(),
		TotalNs:    sp.TotalNs(),
		WaitNs:     sp.Phase(SpanWait),
		LeaseNs:    sp.Phase(SpanLease),
		AttemptsNs: sp.Phase(SpanAttempts),
		SerialNs:   sp.Phase(SpanSerial),
		ReclaimNs:  sp.Phase(SpanReclaim),
		WriteNs:    sp.Phase(SpanWrite),
		WorstPhase: sp.WorstPhase().String(),
		Attempts:   attempts,
		SerialTxs:  serial,
		Aborts:     sp.Causes(),
		Owners:     sp.Owners(),
	}
}

// Slowlog keeps the N slowest requests per time window, plus the previous
// window so a fresh rotation never serves an empty log. It deliberately
// sits outside the sampling gate: the gate throws away 1-in-2^k events
// uniformly, which is exactly wrong for outliers — the slowlog's
// admission is value-based instead (is this request slower than the
// window's current N-th slowest?), so the worst requests always capture.
//
// The admission fast path is two atomic loads off one line — the request
// is below that N-th-slowest floor and ended inside the floor's window —
// so the overwhelming majority, by construction, never touch the mutex
// that guards the (small, bounded) entry lists. The window test uses the
// end stamp the span already carries: a floor left behind by a storm
// expires with its window even when nothing since has been slow enough to
// reach the lock.
type Slowlog struct {
	cap    int
	window int64 // rotation period, ns
	gate   slowGate

	mu       sync.Mutex
	seq      uint64
	curStart int64       // Now() stamp the current window opened at
	cur      []SlowEntry // sorted slowest-first, ≤ cap
	prev     []SlowEntry
}

// NewSlowlog builds a slowlog holding the size slowest requests per
// rotation window.
func NewSlowlog(size int, window time.Duration) *Slowlog {
	s := &Slowlog{cap: size, window: int64(window), curStart: Now()}
	s.gate.expiry.Store(s.curStart + s.window)
	return s
}

// Observe offers a finished span to the log. It must be called before the
// span is re-armed (the entry copies what it keeps).
func (s *Slowlog) Observe(sp *Span) {
	if s == nil || sp == nil {
		return
	}
	total := sp.totalNs
	if total < s.gate.floor.Load() && sp.end < s.gate.expiry.Load() {
		return // fast path: not in this window's top N
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rotateLocked(sp.end)
	// Re-check under the lock: the floor may have moved past us.
	if len(s.cur) == s.cap && total < s.cur[len(s.cur)-1].TotalNs {
		return
	}
	e := entryFromSpan(sp)
	s.seq++
	e.Seq = s.seq
	i := sort.Search(len(s.cur), func(i int) bool { return s.cur[i].TotalNs < total })
	s.cur = append(s.cur, SlowEntry{})
	copy(s.cur[i+1:], s.cur[i:])
	s.cur[i] = e
	if len(s.cur) > s.cap {
		s.cur = s.cur[:s.cap]
	}
	if len(s.cur) == s.cap {
		s.gate.floor.Store(s.cur[len(s.cur)-1].TotalNs)
	}
}

// rotateLocked retires the current window once it ages out. Two stale
// windows in a row clear the previous one too (nothing slow happened
// recently — say so rather than serving ancient outliers as current).
func (s *Slowlog) rotateLocked(now int64) {
	age := now - s.curStart
	if age < s.window {
		return
	}
	if age >= 2*s.window {
		s.prev = nil
	} else {
		s.prev = s.cur
	}
	s.cur = nil
	s.curStart = now
	s.gate.floor.Store(0)
	s.gate.expiry.Store(now + s.window)
}

// Entries returns up to n entries, slowest first, merged across the
// current and previous windows (n ≤ 0 returns everything retained).
func (s *Slowlog) Entries(n int) []SlowEntry {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.rotateLocked(Now())
	merged := make([]SlowEntry, 0, len(s.cur)+len(s.prev))
	merged = append(merged, s.cur...)
	merged = append(merged, s.prev...)
	s.mu.Unlock()
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].TotalNs > merged[j].TotalNs })
	if n > 0 && len(merged) > n {
		merged = merged[:n]
	}
	return merged
}

// Window returns the rotation period.
func (s *Slowlog) Window() time.Duration { return time.Duration(s.window) }

// Cap returns the per-window entry capacity.
func (s *Slowlog) Cap() int { return s.cap }
