package reclaim

import (
	"hohtx/internal/arena"
	"hohtx/internal/obs"
)

// observer is embedded in every scheme so SetObserver promotes uniformly.
// With no probe attached each instrumented site costs one nil check; the
// physical-free flight event is the arena's job (it sees every free), so
// the scheme layer contributes the retire events (probe.Note at each
// Retire) and the retire→free delay distribution that Stats.DelayOpsSum
// only aggregates.
type observer struct {
	probe *obs.TxProbe
}

// SetObserver attaches an obs probe to the scheme (nil detaches). Wire it
// before the scheme is shared, as NewDeferred does.
func (o *observer) SetObserver(p *obs.TxProbe) { o.probe = p }

// Born is the default for schemes that keep no per-node birth state.
func (o *observer) Born(arena.Handle) {}

// noteFreeEv records a sampled retire→free delay (in operation stamps).
func (o *observer) noteFreeEv(tid int, delay uint64) {
	if p := o.probe; p != nil && p.D.Sampled(uint64(tid)) {
		p.DelayOps.RecordAt(uint64(tid), delay)
	}
}

// reclaimSpan returns the request span armed on tid, if the serving layer
// is tracing — the deferred schemes stamp their scan/drain time onto it
// as the Reclaim phase, so a request that happened to amortize a big
// reclamation batch shows that in its slowlog breakdown instead of the
// time being smeared into the operation. Unlike the flight events above,
// span stamping is not sampled: the slowlog must capture outliers.
func (o *observer) reclaimSpan(tid int) *obs.Span {
	if p := o.probe; p != nil {
		return p.D.SpanOf(tid)
	}
	return nil
}
