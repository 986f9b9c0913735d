package obs

// SpanPhase indexes one slice of a request's phase breakdown. The phases
// partition where a slow request's time went: queued for a worker slot
// (Wait), inside speculative transaction attempts (Attempts), inside the
// serial fallback (Serial), amortizing deferred reclamation scans
// (Reclaim), writing the reply (Write; a point request, whose reply is two
// bytes, stamps none), and everything else the server did for the request
// (Lease — parsing, the lease fast path, navigation and allocation outside
// the transaction machinery; Finish computes it as the remainder, so the
// six phases sum to the total exactly). Phases are stamped at different
// layers — the lease pool, the server loop, the stm attempt loop, the
// reclamation schemes — which is the point: one Span ties them back to one
// request, and all of them read one clock (Now).
type SpanPhase uint8

const (
	SpanWait     SpanPhase = iota // queued in the lease pool for a worker slot
	SpanLease                     // the remainder: serving the request outside the other five
	SpanAttempts                  // speculative transaction attempts
	SpanSerial                    // serial-fallback attempts (exclusive lock held)
	SpanReclaim                   // deferred-reclamation scan/drain amortization
	SpanWrite                     // reply marshalling and buffered write
	NumSpanPhases
)

// String returns the phase's snake_case label (the slowlog JSON field
// prefix: "wait" pairs with "wait_ns").
func (p SpanPhase) String() string {
	switch p {
	case SpanWait:
		return "wait"
	case SpanLease:
		return "lease"
	case SpanAttempts:
		return "attempts"
	case SpanSerial:
		return "serial"
	case SpanReclaim:
		return "reclaim"
	case SpanWrite:
		return "write"
	default:
		return "unknown"
	}
}

// Span capacity bounds. A span is a fixed-size value so tracing every
// request allocates nothing after the span itself: key and owner lists
// truncate (the true counts are kept) rather than grow.
const (
	spanMaxKeys   = 8 // keys retained per request (MULTI can exceed this)
	spanMaxOwners = 4 // distinct abort-owner tids retained
	spanMaxCauses = 8 // abort-cause ordinals counted (stm has 6 today)
)

// Span is the request-scoped trace record: armed when the request line is
// parsed and finished after its reply is written. A connection has one
// request in flight, so it owns one Span and re-arms it per request. All
// stamping methods are called from the connection's own goroutine (the
// lease discipline guarantees the request executes there end to end), so
// the fields need no synchronization; only what the connection publishes
// after Finish reaches shared structures (slowlog, hot-key sketches).
//
// Spans bypass the sampling gate by design — the slowlog exists to catch
// outliers, and an outlier sampled away is a forensics hole — so every
// stamping site must stay allocation-free and O(1).
type Span struct {
	verb       string
	start, end int64 // Now() stamps: armed, finished

	keys   [spanMaxKeys]uint64
	nkeys  int // true key count; may exceed spanMaxKeys
	shards uint64

	phases   [NumSpanPhases]uint64
	attempts uint32 // transaction attempts, speculative + serial
	serial   uint32 // serial-fallback attempts among them
	causes   [spanMaxCauses]uint32
	owners   [spanMaxOwners]int32
	nowners  int

	totalNs  uint64
	finished bool
	live     bool // guards double-finish / reset-while-armed
}

// Reset re-arms a finished (or fresh) span for a request that began at
// start — a Now stamp the caller already holds, typically the previous
// request's end. Resetting a live span panics: a span that comes back
// unfinished was leaked by its request path, and the torture harness runs
// with spans armed precisely to make that path panic under -race.
func (sp *Span) Reset(verb string, start int64) {
	if sp.live {
		panic("obs: Span reset while still live (request path leaked a span)")
	}
	*sp = Span{verb: verb, start: start, live: true}
}

// Verb returns the protocol verb the span was created for.
func (sp *Span) Verb() string { return sp.verb }

// AddKey records a key the request touched (truncating past capacity; the
// true count is kept).
func (sp *Span) AddKey(k uint64) {
	if sp.nkeys < spanMaxKeys {
		sp.keys[sp.nkeys] = k
	}
	sp.nkeys++
}

// Keys returns the retained keys and the true key count.
func (sp *Span) Keys() ([]uint64, int) {
	n := sp.nkeys
	if n > spanMaxKeys {
		n = spanMaxKeys
	}
	return sp.keys[:n], sp.nkeys
}

// MarkShard records that the request touched shard i (i ≥ 64 collapses
// onto the top bit — shard counts that large are out of scope). Nil-safe.
func (sp *Span) MarkShard(i int) {
	if sp == nil || i < 0 {
		return
	}
	if i > 63 {
		i = 63
	}
	sp.shards |= 1 << uint(i)
}

// Shards returns the touched shard indexes, ascending.
func (sp *Span) Shards() []int {
	if sp.shards == 0 {
		return nil
	}
	out := make([]int, 0, 4)
	for i := 0; i < 64; i++ {
		if sp.shards&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// Add accumulates ns into phase p. Nil-safe so stamping sites can skip
// their own nil checks when convenient.
func (sp *Span) Add(p SpanPhase, ns uint64) {
	if sp == nil {
		return
	}
	sp.phases[p] += ns
}

// Phase returns the accumulated time in p.
func (sp *Span) Phase(p SpanPhase) uint64 { return sp.phases[p] }

// NoteAttempt counts one transaction attempt (serial marks the fallback).
func (sp *Span) NoteAttempt(serial bool) {
	if sp == nil {
		return
	}
	sp.attempts++
	if serial {
		sp.serial++
	}
}

// Attempts returns the attempt counts: total transaction attempts and how
// many of them ran serially.
func (sp *Span) Attempts() (total, serial uint32) { return sp.attempts, sp.serial }

// NoteAbort records one aborted attempt: its cause ordinal (stm.AbortCause
// numbering — obs mirrors it without the import, see causeNames) and the
// owning tid the attribution table blamed (-1 = unknown), deduplicated
// into the bounded owner list.
func (sp *Span) NoteAbort(cause uint8, owner int) {
	if sp == nil {
		return
	}
	if cause < spanMaxCauses {
		sp.causes[cause]++
	}
	if owner < 0 {
		return
	}
	for i := 0; i < sp.nowners; i++ {
		if sp.owners[i] == int32(owner) {
			return
		}
	}
	if sp.nowners < spanMaxOwners {
		sp.owners[sp.nowners] = int32(owner)
		sp.nowners++
	}
}

// Aborts returns the total aborted attempts.
func (sp *Span) Aborts() uint64 {
	var n uint64
	for _, c := range sp.causes {
		n += uint64(c)
	}
	return n
}

// CauseCount is one abort cause's tally within a span.
type CauseCount struct {
	Cause string `json:"cause"`
	Count uint32 `json:"count"`
}

// Causes returns the span's non-zero abort-cause tallies in ordinal order.
func (sp *Span) Causes() []CauseCount {
	var out []CauseCount
	for i, c := range sp.causes {
		if c != 0 {
			out = append(out, CauseCount{Cause: causeName(uint8(i)), Count: c})
		}
	}
	return out
}

// Owners returns the distinct abort-owner tids recorded (bounded).
func (sp *Span) Owners() []int32 {
	if sp.nowners == 0 {
		return nil
	}
	return append([]int32(nil), sp.owners[:sp.nowners]...)
}

// WorstPhase returns the phase that accumulated the most time (ties go to
// the earlier phase).
func (sp *Span) WorstPhase() SpanPhase {
	best := SpanPhase(0)
	for p := SpanPhase(1); p < NumSpanPhases; p++ {
		if sp.phases[p] > sp.phases[best] {
			best = p
		}
	}
	return best
}

// TotalNs returns the span's end-to-end time (0 until Finish).
func (sp *Span) TotalNs() uint64 { return sp.totalNs }

// Finish seals the span at end (a Now stamp): the total is end − start,
// and Lease becomes what the stamped phases leave of it, so the breakdown
// partitions the total with no unnamed residual. The stamped phases are
// disjoint stretches of one monotonic clock inside [start, end], so they
// cannot exceed the total; the clamp only guards a caller that stamped
// overlapping ones. Finishing twice panics — a re-armed span finished by
// two paths would publish one request's record as another's, and the
// harnesses run with spans armed to catch exactly that.
func (sp *Span) Finish(end int64) uint64 {
	if !sp.live || sp.finished {
		panic("obs: Span finished twice (or never started)")
	}
	sp.finished = true
	sp.live = false
	sp.end = end
	sp.totalNs = uint64(end - sp.start)
	sp.phases[SpanLease] = 0
	var stamped uint64
	for _, ns := range sp.phases {
		stamped += ns
	}
	if stamped < sp.totalNs {
		sp.phases[SpanLease] = sp.totalNs - stamped
	}
	return sp.totalNs
}

// SetSpan arms sp as tid's active request span: SpanOf(tid) returns it
// until cleared with SetSpan(tid, nil). The table is written only by the
// goroutine holding tid's worker-slot lease (the same goroutine that runs
// the transactions consulting it), so a plain slot per tid suffices; it
// is nil-safe and bounds-checked so unwired layers cost one branch.
func (d *Domain) SetSpan(tid int, sp *Span) {
	if d == nil || tid < 0 || tid >= len(d.spans) {
		return
	}
	d.spans[tid].sp = sp
}

// SpanOf returns tid's active request span, or nil when tracing is off,
// the domain carries no span table, or no request is in flight on tid.
func (d *Domain) SpanOf(tid int) *Span {
	if d == nil || tid < 0 || tid >= len(d.spans) {
		return nil
	}
	return d.spans[tid].sp
}
