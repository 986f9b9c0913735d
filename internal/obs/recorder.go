package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"hohtx/internal/pad"
)

// EventKind enumerates the transaction-lifecycle events the flight
// recorder captures.
type EventKind uint8

const (
	// EvBegin is the start of a (sampled) transaction attempt; Aux is the
	// attempt number.
	EvBegin EventKind = iota
	// EvCommit is a successful commit; Aux is the write-set size.
	EvCommit
	// EvAbort is an aborted attempt; Cause is the stm abort cause, Ref is
	// the conflicting cell's address (0 if unknown) and Aux is the tid of
	// the last sampled writer of that cell (all-ones = unknown).
	EvAbort
	// EvSerial marks escalation to the exclusive serial fallback; Cause
	// is the abort cause that triggered it.
	EvSerial
	// EvRetire is a logical deletion handed to a deferred-reclamation
	// scheme; Ref is the arena handle.
	EvRetire
	// EvFree is a physical arena free; Ref is the arena handle.
	EvFree
)

// String returns the event kind's short dump label.
func (k EventKind) String() string {
	switch k {
	case EvBegin:
		return "begin"
	case EvCommit:
		return "commit"
	case EvAbort:
		return "abort"
	case EvSerial:
		return "serial"
	case EvRetire:
		return "retire"
	case EvFree:
		return "free"
	default:
		return fmt.Sprintf("ev?%d", uint8(k))
	}
}

// Event is one flight-recorder entry. Seq is drawn from a global counter
// at emit time, so merging per-thread rings by Seq reconstructs a total
// order of recorded events (the order of Seq assignment, which brackets
// the real interleaving closely enough for postmortems).
type Event struct {
	Seq   uint64
	Tid   int32
	Kind  EventKind
	Cause uint8  // stm.AbortCause ordinal for EvAbort/EvSerial
	Ref   uint64 // cell address or arena handle, kind-dependent
	Aux   uint64 // kind-dependent (see the kind constants)
}

// ring is one thread's event buffer. The owning thread is the only
// writer; the mutex exists so Dump can read a consistent prefix while the
// run is still live (uncontended in the single-writer steady state).
type ring struct {
	mu     sync.Mutex
	events []Event
	next   int
	wrap   bool
	_      pad.Line
}

func (r *ring) push(e Event) {
	r.mu.Lock()
	r.events[r.next] = e
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.wrap = true
	}
	r.mu.Unlock()
}

// snapshot returns the ring's events, oldest first.
func (r *ring) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrap {
		return append([]Event(nil), r.events[:r.next]...)
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	return append(out, r.events[:r.next]...)
}

// Recorder is the sampled per-thread ring-buffer flight recorder. Emit is
// cheap (one atomic Add for the sequence number plus an uncontended lock
// on the caller's own ring) but callers are expected to gate it behind
// Domain.Sampled.
type Recorder struct {
	seq   atomic.Uint64
	rings []ring
}

// ringEvents is a TxProbe's per-thread ring capacity: both of the
// recorder's readers (torture's failure report, /flight) print a tail of
// 200 events, and the last 200 of the merge lie within every ring's last
// 200.
const ringEvents = 256

// NewRecorder creates a recorder with one ring of perThread events for
// each of threads tids, plus one shared overflow ring for events emitted
// without a tid.
func NewRecorder(threads, perThread int) *Recorder {
	if threads < 0 {
		threads = 0
	}
	r := &Recorder{rings: make([]ring, threads+1)}
	for i := range r.rings {
		r.rings[i].events = make([]Event, perThread)
	}
	return r
}

// Emit records one event on tid's ring (events from unknown or
// out-of-range tids share the overflow ring).
func (r *Recorder) Emit(tid int, kind EventKind, cause uint8, ref, aux uint64) {
	i := len(r.rings) - 1
	if tid >= 0 && tid < i {
		i = tid
	}
	r.rings[i].push(Event{
		Seq: r.seq.Add(1), Tid: int32(tid), Kind: kind,
		Cause: cause, Ref: ref, Aux: aux,
	})
}

// Events returns the merged, Seq-ordered contents of every ring.
func (r *Recorder) Events() []Event {
	var out []Event
	for i := range r.rings {
		out = append(out, r.rings[i].snapshot()...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// causeNames mirrors stm's AbortCause order without importing stm (obs
// sits below stm in the dependency order).
var causeNames = [...]string{"none", "read-conflict", "validation", "write-lock", "capacity", "explicit"}

func causeName(c uint8) string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause?%d", c)
}

func formatEvent(w io.Writer, e Event) {
	switch e.Kind {
	case EvBegin:
		fmt.Fprintf(w, "  [%7d] t%-2d begin   attempt=%d\n", e.Seq, e.Tid, e.Aux)
	case EvCommit:
		fmt.Fprintf(w, "  [%7d] t%-2d commit  writes=%d\n", e.Seq, e.Tid, e.Aux)
	case EvAbort:
		owner := "?"
		if int64(e.Aux) >= 0 {
			owner = fmt.Sprintf("t%d", int64(e.Aux))
		}
		fmt.Fprintf(w, "  [%7d] t%-2d abort   cause=%s cell=0x%x owner=%s\n",
			e.Seq, e.Tid, causeName(e.Cause), e.Ref, owner)
	case EvSerial:
		fmt.Fprintf(w, "  [%7d] t%-2d serial  after=%s\n", e.Seq, e.Tid, causeName(e.Cause))
	case EvRetire:
		fmt.Fprintf(w, "  [%7d] t%-2d retire  %s\n", e.Seq, e.Tid, handleString(e.Ref))
	case EvFree:
		fmt.Fprintf(w, "  [%7d] t%-2d free    %s\n", e.Seq, e.Tid, handleString(e.Ref))
	default:
		fmt.Fprintf(w, "  [%7d] t%-2d %v ref=0x%x aux=%d\n", e.Seq, e.Tid, e.Kind, e.Ref, e.Aux)
	}
}

// handleString renders an arena.Handle's bits the way Handle.String does,
// without importing arena.
func handleString(h uint64) string {
	if h == 0 {
		return "hnil"
	}
	return fmt.Sprintf("h%d.g%d", uint32(h), uint32(h>>32)&0x3fffffff)
}

// DumpTail writes the last n recorded events (by Seq) to w — the form the
// torture harness appends to failure reports.
func (r *Recorder) DumpTail(w io.Writer, n int) {
	ev := r.Events()
	if n > 0 && len(ev) > n {
		fmt.Fprintf(w, "  ... %d earlier events elided ...\n", len(ev)-n)
		ev = ev[len(ev)-n:]
	}
	if len(ev) == 0 {
		fmt.Fprintln(w, "  (no events recorded)")
		return
	}
	for _, e := range ev {
		formatEvent(w, e)
	}
}
