package obs

// burstKeys is the scratch capacity: with its Span, a connection's whole
// forensic state stays under 1 KiB (TestConnForensicStateSize).
const burstKeys = 16

// Burst is one connection's unpublished hot-key charges: those of the
// requests served since it last published. The serving layer records per
// request — plain stores into memory the connection owns — and publishes
// once per pipelined burst: one sketch lock per shard touched instead of
// one per request. A full scratch publishes early, so nothing is dropped
// or sampled away, and keys reach each sketch in request order, so the
// sketches hold what per-request Adds would have produced.
//
// Not safe for concurrent use: it belongs to one connection goroutine.
type Burst struct {
	hot  []*HotKeys // per shard
	keys [burstKeys]burstKey
	n    int
}

type burstKey struct {
	key, ns uint64
	aborts  uint32
	shard   int32
}

// NewBurst returns scratch publishing to hot (indexed by shard).
func NewBurst(hot []*HotKeys) Burst { return Burst{hot: hot} }

// Key charges key on shard with a request's total ns and aborted attempts.
func (b *Burst) Key(shard int, key, ns, aborts uint64) {
	if b.n == burstKeys {
		b.Publish()
	}
	b.keys[b.n] = burstKey{key: key, ns: ns, aborts: uint32(min(aborts, 1<<32-1)), shard: int32(shard)}
	b.n++
}

// Publish hands everything recorded to the shared sketches: each shard's
// keys are gathered, in order, and applied under one lock per sketch (an
// empty batch takes none); the aborts sketch sees only requests that
// aborted.
func (b *Burst) Publish() {
	if b.n == 0 {
		return
	}
	var lat, ab [burstKeys]KeyWeight
	for shard, hot := range b.hot {
		nl, na := 0, 0
		for _, p := range b.keys[:b.n] {
			if int(p.shard) != shard {
				continue
			}
			lat[nl] = KeyWeight{p.key, p.ns}
			nl++
			if p.aborts != 0 {
				ab[na] = KeyWeight{p.key, uint64(p.aborts)}
				na++
			}
		}
		hot.Latency.AddAll(lat[:nl])
		hot.Aborts.AddAll(ab[:na])
	}
	b.n = 0
}
