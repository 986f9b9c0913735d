package main

import (
	"fmt"
	"strconv"

	"hohtx/internal/bench"
)

// conns is the number of closed-loop client connections, one goroutine
// each: two per CPU (the benchmark pins GOMAXPROCS to the host's 2). With
// one caller per CPU a processor idles whenever its caller waits for a
// reply, and how fast an idle virtual CPU wakes is the noisiest thing on
// this host; with two, throughput repeated twice as well (README.md). Four
// callers also share each shard's two worker slots, as a server's
// connections do, so leases wait.
const conns = 4

// workload is one traffic mix against one server configuration.
type workload struct {
	name    string
	family  bench.Family
	variant string
	shards  int
	slots   int    // worker slots per shard
	keys    uint64 // key range [1, keys]; half of it is prefilled
	// Mix in parts per thousand; the remainder after get+set+scan is DEL.
	get, set, scan int
	scanLen        int // keys per ASCEND
	multi          int // operations per MULTI frame; 0 sends plain verbs
	depth          int // requests per burst (write depth, flush once, read depth)
	ladderOps      int // operations per connection per rung of the traced run; bursts divide by ten
	// The reference service beside this workload (reference.go): the nodes
	// it walks per request, sized so that it spends about the share of a
	// request walking that the workload spends in its structure, and what it
	// reads on this host in its usual phase, in µs: the median latency of a
	// request and the CPU a request costs. The latter two only fix the
	// scale of the corrected readings: where the reference reads this, they
	// equal the raw ones.
	refWalk            int
	refLatUs, refCPUUs float64
}

// The four workloads. README.md says why each exists and which layer it
// loads; point-small and point-large must differ in keys alone.
var workloads = []workload{
	{name: "point-small", family: bench.FamilySingly, variant: "RR-V", shards: 1, slots: 2,
		keys: 64, get: 500, set: 250, depth: 8, ladderOps: 600_000, refWalk: 768, refLatUs: 52, refCPUUs: 26},
	{name: "point-large", family: bench.FamilySingly, variant: "RR-V", shards: 1, slots: 2,
		keys: 4096, get: 500, set: 250, depth: 8, ladderOps: 48_000, refWalk: 8192, refLatUs: 260, refCPUUs: 130},
	{name: "batch-churn", family: bench.FamilySingly, variant: "TMHP", shards: 1, slots: 2,
		keys: 256, set: 500, multi: 16, depth: 1, ladderOps: 1_280_000, refWalk: 2304, refLatUs: 88, refCPUUs: 42},
	{name: "scan-sharded", family: bench.FamilySkipList, variant: "RR-V", shards: 2, slots: 2,
		keys: 131072, get: 450, set: 225, scan: 100, scanLen: 64, depth: 8, ladderOps: 256_000, refWalk: 160, refLatUs: 57, refCPUUs: 28},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opsPerBurst is the number of key operations one burst carries.
func (w *workload) opsPerBurst() int {
	if w.multi > 0 {
		return w.depth * w.multi
	}
	return w.depth
}

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDel
	opScan
	numKinds
)

var kindNames = [numKinds]string{"get", "set", "del", "scan"}

type op struct {
	kind opKind
	key  uint64 // for opScan, the lower bound
}

// generator draws one connection's operation stream. Keys are partitioned
// by connection (key ≡ conn+1 mod conns), so a connection's own replies are
// a deterministic function of its own stream whatever the other connections
// do; that is what lets the oracle be exact. The stream depends on (seed,
// conn) only: the server sees nothing but the bytes rendered from it.
type generator struct {
	w    *workload
	conn int
	own  uint64 // keys this connection owns
	rng  rng
	mix  [numKinds]uint64
}

func newGenerator(w *workload, seed uint64, conn int) *generator {
	return &generator{w: w, conn: conn, own: w.keys / conns, rng: newRNG(seed*conns + uint64(conn))}
}

func (g *generator) ownKey(j uint64) uint64 { return 1 + uint64(g.conn) + conns*j }

func (g *generator) next() op {
	r := int(g.rng.below(1000))
	k := g.ownKey(g.rng.below(g.own))
	var kind opKind
	switch {
	case r < g.w.get:
		kind = opGet
	case r < g.w.get+g.w.set:
		kind = opSet
	case r < g.w.get+g.w.set+g.w.scan:
		kind = opScan
	default:
		kind = opDel
	}
	g.mix[kind]++
	return op{kind, k}
}

func (g *generator) fill(ops []op) {
	for i := range ops {
		ops[i] = g.next()
	}
}

// prefillKeys returns half of the connection's keys in seeded-shuffled
// order. Ascending prefill (what cmd/hohload does) is only harmless on a
// list: see README.md, "Prefill order".
func (g *generator) prefillKeys() []uint64 {
	keys := make([]uint64, g.own)
	for j := range keys {
		keys[j] = g.ownKey(uint64(j))
	}
	for i := len(keys) - 1; i > 0; i-- {
		j := g.rng.below(uint64(i + 1))
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys[:len(keys)/2]
}

// appendRequests renders a burst's requests in wire form: per plain verbs,
// or one MULTI frame per `per` operations.
func appendRequests(dst []byte, ops []op, per int, scanLen int) []byte {
	for i, o := range ops {
		if per > 1 && i%per == 0 {
			dst = append(dst, "MULTI "...)
			dst = strconv.AppendInt(dst, int64(per), 10)
			dst = append(dst, '\n')
		}
		switch o.kind {
		case opGet:
			dst = append(dst, "GET "...)
		case opSet:
			dst = append(dst, "SET "...)
		case opDel:
			dst = append(dst, "DEL "...)
		case opScan:
			dst = append(dst, "ASCEND "...)
		}
		dst = strconv.AppendUint(dst, o.key, 10)
		if o.kind == opScan {
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(scanLen), 10)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// oracle is one connection's sequential model of its own keys.
type oracle struct {
	w       *workload
	conn    int
	present []bool // indexed by key
	count   int
}

func newOracle(w *workload, conn int) *oracle {
	return &oracle{w: w, conn: conn, present: make([]bool, w.keys+1)}
}

// point applies a GET/SET/DEL to the model and reports whether the
// server's answer was the only correct one.
func (m *oracle) point(o op, got bool) bool {
	was := m.present[o.key]
	switch o.kind {
	case opSet:
		if !was {
			m.present[o.key] = true
			m.count++
		}
		return got == !was
	case opDel:
		if was {
			m.present[o.key] = false
			m.count--
		}
		return got == was
	default:
		return got == was
	}
}

// scan checks one ASCEND reply: keys strictly ascending and inside
// [lo, w.keys], and — since nobody else writes this connection's keys —
// exactly the connection's own present keys over the range the scan
// covered. The other connections' keys may come or go mid-scan (the
// server's documented weak contract), so they are only range-checked.
func (m *oracle) scan(lo uint64, keys []uint64) bool {
	covered := m.w.keys // a short reply ran off the end of the set
	if len(keys) == m.w.scanLen {
		covered = keys[len(keys)-1]
	}
	prev := lo - 1
	next := lo + (uint64(m.conn)+1+conns-lo%conns)%conns // first own key ≥ lo
	for _, k := range keys {
		if k <= prev || k > m.w.keys {
			return false
		}
		prev = k
		if k%conns != (uint64(m.conn)+1)%conns {
			continue
		}
		for ; next < k; next += conns {
			if m.present[next] {
				return false // an own key the scan skipped
			}
		}
		if !m.present[k] {
			return false // an own key that is not in the set
		}
		next = k + conns
	}
	for ; next <= covered; next += conns {
		if m.present[next] {
			return false
		}
	}
	return true
}
