package stm

import "hohtx/internal/obs"

// Observability hooks. The runtime's aggregate counters (stats.go) answer
// "how many"; the obs probe answers "how long" and "who": the commit
// latency histogram, a flight recorder of sampled transaction lifecycles,
// and a who-aborted-whom attribution table keyed by the conflicting cell's
// version word.
//
// The sampling decision is made once per transaction, not per event, so
// each sampled transaction contributes a complete begin→(abort|serial)*→
// commit trace to the recorder. tx.slotHash doubles as the sampling and
// shard hint: it is fixed per context and well distributed (Fibonacci
// hashing), so sampled transactions spread across histogram shards without
// another random draw — and, unlike drawing from tx.rng, sampling does not
// perturb the backoff-jitter sequence of unsampled runs.

// SetObserver attaches an obs probe to the runtime (nil detaches). Not
// synchronized with in-flight transactions: wire it before the runtime is
// shared, as the data structure constructors do.
func (rt *Runtime) SetObserver(p *obs.TxProbe) { rt.obs = p }

// noteCommit records a sampled transaction's whole-call latency, claims
// the written cells in the attribution table and logs the commit.
func (tx *Tx) noteCommit(p *obs.TxProbe, t0 int64) {
	p.CommitNs.RecordAt(tx.slotHash, uint64(obs.Now()-t0))
	tid := int(tx.tid)
	for i := range tx.ws {
		p.Attr.NoteWrite(tx.ws[i].m, tid)
	}
	p.Rec.Emit(tid, obs.EvCommit, 0, 0, uint64(len(tx.ws)))
}

// noteAbort attributes a sampled abort to the last sampled writer of the
// conflicting cell (when one was captured) and logs it.
func (tx *Tx) noteAbort(p *obs.TxProbe) {
	tid := int(tx.tid)
	owner := -1
	var ref uint64
	if tx.conflict != nil {
		owner = p.Attr.Owner(tx.conflict)
		ref = obs.CellRef(tx.conflict)
	}
	p.Attr.NoteAbort(tid, owner)
	p.Rec.Emit(tid, obs.EvAbort, uint8(tx.cause), ref, uint64(int64(owner)))
}
