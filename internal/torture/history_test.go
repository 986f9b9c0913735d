package torture

import (
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"hohtx/internal/family"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
)

// op is one recorded single-op call.
func op(who string, inv, resp int64, kind sets.OpKind, key uint64, res bool) entry {
	return entry{who: who, inv: inv, resp: resp, ops: []sets.Op{{Kind: kind, Key: key}}, res: []bool{res}}
}

// scan is one recorded Ascend; the final snapshot is one from 0.
func scan(who string, inv, resp int64, lo uint64, keys ...uint64) entry {
	return entry{who: who, inv: inv, resp: resp, lo: lo, keys: keys}
}

// pairHistory is an atomic two-key insert of a and b over [0, 10] and a
// two-key lookup inside it that sees a but not b, recorded as a
// shards-shard instance would record them.
func pairHistory(a, b uint64, shards int) []entry {
	r := recorder{who: "worker 0", shards: shards, atomic: true}
	r.call(0, 10, []sets.Op{{Kind: sets.OpInsert, Key: a}, {Kind: sets.OpInsert, Key: b}}, []bool{true, true})
	r.who = "worker 1"
	r.call(3, 4, []sets.Op{{Kind: sets.OpLookup, Key: a}, {Kind: sets.OpLookup, Key: b}}, []bool{true, false})
	return append(r.log, scan("snapshot", 20, 21, 0, min(a, b), max(a, b)))
}

// TestCheckerVerdicts runs the checker on hand-written histories: it must
// accept what some linearization explains, and reject the rest naming the
// key (or keys) that have none.
func TestCheckerVerdicts(t *testing.T) {
	a, b := uint64(1), uint64(2)
	for serve.ShardOf(b, 2) == serve.ShardOf(a, 2) {
		b++
	}
	const look, ins, rem = sets.OpLookup, sets.OpInsert, sets.OpRemove
	for _, tc := range []struct {
		name string
		h    []entry
		want string // "" accepts; otherwise what the one failure names
	}{
		{"overlapping orders a replay by invocation rejects", []entry{
			op("worker 0", 0, 10, rem, 1, true), // invoked on an empty set, yet it removed 1:
			op("worker 1", 2, 4, ins, 1, true),  // the insert that overlaps it went first
			op("worker 2", 5, 6, look, 1, true),
			op("worker 3", 1, 3, look, 1, false),
			scan("worker 4", 1, 11, 0, 1),
			scan("snapshot", 20, 21, 0),
		}, ""},
		{"a torn-looking pair on two shards", pairHistory(a, b, 2), ""},
		{"an atomic pair observed one-of-two", pairHistory(a, a+1, 1),
			fmt.Sprintf("keys [%d %d]", a, a+1)},
		{"two successful inserts with no remove between", []entry{
			op("worker 0", 0, 1, ins, 5, true),
			op("worker 1", 2, 3, ins, 5, true),
			scan("snapshot", 20, 21, 0, 5),
		}, "key 5"},
		{"a never-inserted key found", []entry{
			op("worker 0", 0, 1, look, 9, true),
			scan("snapshot", 20, 21, 0),
		}, "key 9"},
		{"a present-throughout key skipped", []entry{
			op("prefill", 0, 1, ins, 3, true),
			op("prefill", 1, 2, ins, 4, true),
			scan("worker 0", 5, 9, 0, 4),
			scan("snapshot", 20, 21, 0, 3, 4),
		}, "key 3"},
		{"a scan out of order", []entry{
			op("prefill", 0, 1, ins, 3, true),
			op("prefill", 1, 2, ins, 4, true),
			scan("worker 0", 5, 9, 0, 4, 3),
			scan("snapshot", 20, 21, 0, 3, 4),
		}, "emitted 3 out of order"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fails := check(tc.h)
			switch {
			case tc.want == "" && fails != nil:
				t.Fatalf("rejected a linearizable history:\n%s", strings.Join(fails, "\n"))
			case tc.want != "" && len(fails) != 1:
				t.Fatalf("want one failure naming %q, got %q", tc.want, fails)
			case tc.want != "" && !strings.Contains(fails[0], tc.want):
				t.Fatalf("failure does not name %q:\n%s", tc.want, fails[0])
			}
		})
	}
}

// Each mutant below breaks one promise a set makes, in a way no fault or
// sanitizer sees: only the results are wrong.

// tornApply runs a batch one op at a time, yielding between ops, on an
// instance that still counts as atomic.
type tornApply struct{ sets.Set }

func (m tornApply) Apply(tid int, ops []sets.Op) []sets.Result {
	out := make([]sets.Result, len(ops))
	for i := range ops {
		out[i] = sets.ApplyEach(m.Set, tid, ops[i:i+1])[0]
		runtime.Gosched()
	}
	return out
}

// staleLookup answers every 5th lookup of a tid with that tid's previous
// answer for the key.
type staleLookup struct {
	sets.Set
	last []map[uint64]bool
	n    []int
}

func (m *staleLookup) Lookup(tid int, key uint64) bool {
	m.n[tid]++
	if prev, ok := m.last[tid][key]; ok && m.n[tid]%5 == 0 {
		return prev
	}
	m.last[tid][key] = m.Set.Lookup(tid, key)
	return m.last[tid][key]
}

// dropScan leaves the first key of every scan out.
type dropScan struct {
	sets.Set
	asc sets.Ascender
}

func (m dropScan) Ascend(tid int, from uint64, fn func(uint64) bool) error {
	first := true
	return m.asc.Ascend(tid, from, func(k uint64) bool {
		if first {
			first = false
			return true
		}
		return fn(k)
	})
}

func (m dropScan) AscendN(tid int, from uint64, _ int, fn func(uint64) bool) error {
	return m.Ascend(tid, from, fn)
}

// lyingInsert reports success on its 20th real failure, past the prefill.
type lyingInsert struct {
	sets.Set
	fails atomic.Int64
}

func (m *lyingInsert) Insert(tid int, key uint64) bool {
	return m.Set.Insert(tid, key) || m.fails.Add(1) == 20
}

// TestCheckerRejectsMutants runs each mutant on every seed it names: the
// run must fail, and its failure must name a key.
func TestCheckerRejectsMutants(t *testing.T) {
	named := regexp.MustCompile(`history: (key \d+|keys \[[\d ]+\]) has no linearization`)
	for _, tc := range []struct {
		name  string
		cfg   Config
		wrap  func(cfg Config, s sets.Set) sets.Set
		seeds []uint64
	}{
		{"torn Apply", Config{Variant: "RR-V", BatchOps: 8},
			func(_ Config, s sets.Set) sets.Set { return tornApply{s} },
			[]uint64{1, 2, 3, 4, 5}},
		{"stale Lookup", Config{Variant: "RR-V", LookupPct: 40},
			func(cfg Config, s sets.Set) sets.Set {
				m := &staleLookup{Set: s, last: make([]map[uint64]bool, cfg.Threads), n: make([]int, cfg.Threads)}
				for i := range m.last {
					m.last[i] = map[uint64]bool{}
				}
				return m
			},
			[]uint64{1, 2, 3, 4, 5}},
		{"Ascend drops a key", Config{Variant: "RR-V"},
			func(_ Config, s sets.Set) sets.Set { return dropScan{s, s.(sets.Ascender)} },
			[]uint64{1, 2, 3, 4, 5}},
		{"Insert lies once", Config{Variant: "TMHP"},
			func(_ Config, s sets.Set) sets.Set { return &lyingInsert{Set: s} },
			[]uint64{1, 2, 3, 4, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range tc.seeds {
				cfg := tc.cfg
				cfg.Structure, cfg.Threads, cfg.Ops, cfg.Keys, cfg.Seed = family.Singly, 4, 2000, 32, seed
				cfg = cfg.withDefaults()
				inst, err := build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				inst.set = tc.wrap(cfg, inst.set)
				_, err = runOn(cfg, inst)
				if err == nil {
					t.Fatalf("seed %d: the mutant passed (repro: %s)", seed, cfg)
				}
				if !named.MatchString(err.Error()) {
					t.Fatalf("seed %d: the failure names no key:\n%.2000s", seed, err)
				}
			}
		})
	}
}
