package obs

import (
	"sort"
	"sync"
)

// DefaultTopK is the serving layer's sketch capacity.
const DefaultTopK = 16

// TopKItem is one tracked key with its estimated count. The space-saving
// guarantee: the true count lies in [Count-Err, Count], and any key whose
// true count exceeds N/k (N = total weight added, k = capacity) is
// guaranteed to be present in the sketch.
type TopKItem struct {
	Key   uint64 `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err"` // overestimate bound inherited at eviction
}

// TopK is a space-saving (Metwally et al.) top-K counter over uint64
// keys: at most k keys are tracked; an untracked key evicts the current
// minimum and inherits its count as its error bound. Adds take a mutex —
// the callers (the serving layer's hot-key accounting) add a burst of
// requests at a time, not per memory access, and k is small enough that
// the linear min scan is cheaper than heap bookkeeping.
type TopK struct {
	k     int
	mu    sync.Mutex
	keys  []uint64   // tracked keys; parallel to slots, grow-once to k
	slots []topkSlot // counts + error bounds
}

type topkSlot struct {
	count uint64
	err   uint64
}

// NewTopK builds a sketch tracking at most k ≥ 1 keys.
func NewTopK(k int) *TopK {
	return &TopK{k: k, keys: make([]uint64, 0, k), slots: make([]topkSlot, 0, k)}
}

// KeyWeight is one sketch update: weight W for Key.
type KeyWeight struct{ Key, W uint64 }

// AddAll applies items in order under one lock acquisition: the sketch
// ends up exactly as len(items) Adds would have left it — what lets a
// connection publish a whole burst's keys at once. An empty batch takes no
// lock.
func (t *TopK) AddAll(items []KeyWeight) {
	if t == nil || len(items) == 0 {
		return
	}
	t.mu.Lock()
	for _, it := range items {
		if it.W != 0 {
			t.addLocked(it.Key, it.W)
		}
	}
	t.mu.Unlock()
}

// addLocked is the space-saving update, in one scan that finds the key or,
// failing that, the first minimum. Allocation-free after the sketch fills:
// the tracked set lives in two fixed parallel arrays, and eviction
// overwrites in place. (The earlier map-of-pointers layout allocated one
// slot per eviction — one heap object per request whenever the key space
// outruns k, which is the common case — and the serving layer's
// allocation budget, DESIGN.md §15, counts that as a leak.)
//
// The minimum so far is kept in a local rather than re-read through mi:
// that keeps the loop free of a dependent load and a bounds check per slot,
// and halves what an add costs on a full sketch.
func (t *TopK) addLocked(key uint64, w uint64) {
	mi, least := 0, ^uint64(0)
	slots := t.slots[:len(t.keys)]
	for i, k := range t.keys {
		if k == key {
			slots[i].count += w
			return
		}
		if c := slots[i].count; c < least {
			mi, least = i, c
		}
	}
	if len(t.keys) < t.k {
		t.keys = append(t.keys, key)
		t.slots = append(t.slots, topkSlot{count: w})
		return
	}
	// Evict the first minimum; the newcomer inherits its count as error.
	t.keys[mi] = key
	t.slots[mi] = topkSlot{count: least + w, err: least}
}

// Items returns the tracked keys, highest estimated count first (ties by
// key for determinism).
func (t *TopK) Items() []TopKItem {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]TopKItem, 0, len(t.keys))
	for i, k := range t.keys {
		out = append(out, TopKItem{Key: k, Count: t.slots[i].count, Err: t.slots[i].err})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// HotKeys is one shard's pair of hot-key sketches: which keys cause
// transaction aborts, and which keys the request latency concentrates on.
// Two sketches because the rankings diverge — a key can be latency-hot
// without ever conflicting (large scans) and an aborts-ranked sketch
// would evict it.
type HotKeys struct {
	Aborts  *TopK // weight = aborted attempts of requests touching the key
	Latency *TopK // weight = request total ns attributed to the key
}

// NewHotKeys builds both sketches at capacity k.
func NewHotKeys(k int) *HotKeys {
	return &HotKeys{Aborts: NewTopK(k), Latency: NewTopK(k)}
}

// HotShard is the JSON face of one shard's sketches (Shard -1 = the
// cross-shard rollup).
type HotShard struct {
	Shard     int        `json:"shard"`
	ByAborts  []TopKItem `json:"by_aborts"`
	ByLatency []TopKItem `json:"by_latency_ns"`
}

// Snapshot captures one shard's sketches.
func (h *HotKeys) Snapshot(shard int) HotShard {
	return HotShard{Shard: shard, ByAborts: h.Aborts.Items(), ByLatency: h.Latency.Items()}
}

// RollupHot merges per-shard sketches into one cross-shard ranking:
// counts and error bounds sum per key (shards partition the key space, so
// a key's estimates come from exactly one shard and the sum is just the
// union — but the merge stays correct even for overlapping sketches),
// truncated to the largest per-shard capacity.
func RollupHot(shards []*HotKeys) HotShard {
	merge := func(pick func(h *HotKeys) *TopK) []TopKItem {
		acc := make(map[uint64]TopKItem)
		maxK := 0
		for _, h := range shards {
			if h == nil {
				continue
			}
			t := pick(h)
			if t != nil && t.k > maxK {
				maxK = t.k
			}
			for _, it := range t.Items() {
				a := acc[it.Key]
				a.Key = it.Key
				a.Count += it.Count
				a.Err += it.Err
				acc[it.Key] = a
			}
		}
		out := make([]TopKItem, 0, len(acc))
		for _, it := range acc {
			out = append(out, it)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Count != out[j].Count {
				return out[i].Count > out[j].Count
			}
			return out[i].Key < out[j].Key
		})
		if maxK > 0 && len(out) > maxK {
			out = out[:maxK]
		}
		return out
	}
	return HotShard{
		Shard:     -1,
		ByAborts:  merge(func(h *HotKeys) *TopK { return h.Aborts }),
		ByLatency: merge(func(h *HotKeys) *TopK { return h.Latency }),
	}
}
