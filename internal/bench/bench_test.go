package bench

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hohtx/internal/family"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

func tinyWorkload() Workload {
	return Workload{KeyBits: 6, LookupPct: 33, OpsPerThread: 2000}
}

func TestPrefillFillsHalf(t *testing.T) {
	s, err := Build(FamilySingly, VariantSpec{Name: "RR-XO"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := tinyWorkload()
	Prefill(s, w, 2, 1)
	if got, want := len(s.Snapshot()), int(w.KeyRange()/2); got != want {
		t.Fatalf("prefill size = %d, want %d", got, want)
	}
}

// logged wraps a set and records, in one shared order, every call the
// measured run makes on it.
type logged struct {
	sets.Set
	label string
	log   *callLog
	lie   atomic.Bool // report the first failed insert as a success
}

type call struct {
	label string
	what  string // "register", "op" or "finish"
	tid   int
}

type callLog struct {
	mu    sync.Mutex
	calls []call
}

func (l *logged) add(what string, tid int) {
	l.log.mu.Lock()
	l.log.calls = append(l.log.calls, call{l.label, what, tid})
	l.log.mu.Unlock()
}

func (l *logged) Register(tid int) { l.add("register", tid); l.Set.Register(tid) }
func (l *logged) Finish(tid int)   { l.Set.Finish(tid); l.add("finish", tid) }
func (l *logged) Lookup(tid int, k uint64) bool {
	l.add("op", tid)
	return l.Set.Lookup(tid, k)
}
func (l *logged) Remove(tid int, k uint64) bool {
	l.add("op", tid)
	return l.Set.Remove(tid, k)
}
func (l *logged) Insert(tid int, k uint64) bool {
	l.add("op", tid)
	ok := l.Set.Insert(tid, k)
	return ok || l.lie.CompareAndSwap(true, false)
}

// loggedGroup builds a prefilled group of three RR-V/TMHP series, each
// wrapped in a logged set; the one labelled liar lies once.
func loggedGroup(t *testing.T, w Workload, threads int, liar string) ([]member, *callLog) {
	log := &callLog{}
	var group []member
	for _, c := range []struct{ label, name string }{{"TMHP", "TMHP"}, {"RR-V", "RR-V"}, {"RR-V/8", "RR-V"}} {
		s, err := Build(FamilySingly, VariantSpec{Name: c.name, Window: 8}, threads)
		if err != nil {
			t.Fatal(err)
		}
		Prefill(s, w, threads, 5)
		l := &logged{Set: s, label: c.label, log: log}
		l.lie.Store(c.label == liar)
		group = append(group, member{c.label, 8, l})
	}
	return group, log
}

// TestGroupTakesTurnsInTenths drives the group runner through logged sets:
// every series finishes tenth t before any series starts tenth t+1, a tid
// registers before its first operation and finishes once, after its last,
// and the baseline reads ratio 1, ahead 0.
func TestGroupTakesTurnsInTenths(t *testing.T) {
	const threads = 3
	w := tinyWorkload()
	group, log := loggedGroup(t, w, threads, "")
	rs, err := measure(group, "TMHP", w, threads, 5)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		label string
		tid   int
	}
	ops := map[key]int{}
	registered, finished := map[key]bool{}, map[key]bool{}
	lastOfTenth := make([]int, tenths) // index of each tenth's last call
	firstOfTenth := make([]int, tenths)
	for i := range firstOfTenth {
		firstOfTenth[i] = len(log.calls)
	}
	for i, c := range log.calls {
		k := key{c.label, c.tid}
		switch c.what {
		case "register":
			if registered[k] || ops[k] > 0 {
				t.Fatalf("%s tid %d registered twice or after an operation", c.label, c.tid)
			}
			registered[k] = true
		case "finish":
			if finished[k] || ops[k] != w.OpsPerThread {
				t.Fatalf("%s tid %d finished after %d of %d operations", c.label, c.tid, ops[k], w.OpsPerThread)
			}
			finished[k] = true
		case "op":
			if !registered[k] || finished[k] {
				t.Fatalf("%s tid %d operated outside Register..Finish", c.label, c.tid)
			}
			tenth := ops[k] / (w.OpsPerThread / tenths)
			ops[k]++
			firstOfTenth[tenth] = min(firstOfTenth[tenth], i)
			lastOfTenth[tenth] = i
		}
	}
	for tn := 1; tn < tenths; tn++ {
		if firstOfTenth[tn] < lastOfTenth[tn-1] {
			t.Fatalf("tenth %d started (call %d) before tenth %d ended (call %d)",
				tn, firstOfTenth[tn], tn-1, lastOfTenth[tn-1])
		}
	}
	if len(finished) != len(group)*threads {
		t.Fatalf("%d tids finished, want %d", len(finished), len(group)*threads)
	}
	for _, r := range rs {
		if r.MopsPerSec <= 0 || r.Ratio <= 0 {
			t.Fatalf("%s: no throughput measured: %+v", r.Series, r)
		}
		if r.Series == "TMHP" && (r.Ratio != 1 || r.RatioIQR != 0 || r.Ahead != 0) {
			t.Fatalf("the baseline reads ratio %v, iqr %v, ahead %d", r.Ratio, r.RatioIQR, r.Ahead)
		}
	}
}

// TestGroupBalanceCatchesALie: a series whose Insert reports success on one
// real failure fails the run, and the error names it.
func TestGroupBalanceCatchesALie(t *testing.T) {
	w := tinyWorkload()
	group, _ := loggedGroup(t, w, 2, "RR-V/8")
	_, err := measure(group, "TMHP", w, 2, 5)
	if err == nil || !strings.Contains(err.Error(), "RR-V/8: balance violated") {
		t.Fatalf("want RR-V/8's balance error, got %v", err)
	}
	if _, err := measure(group[1:], "TMHP", w, 2, 5); err == nil {
		t.Fatal("a group without its baseline ran")
	}
}

// TestBuildEveryPaperVariant builds every family × variant the family table
// defines through Build — hash included, which no line of this package names
// — plus the series the figures plot by name, so the table cannot drop one.
func TestBuildEveryPaperVariant(t *testing.T) {
	cases := map[Family][]string{}
	for _, name := range family.Names() {
		row, _ := family.ByName(name)
		cases[Family(name)] = row.Variants()
	}
	for fam, names := range map[Family][]string{
		FamilySingly:       append(RRNames(), "HTM", "TMHP", "TMHE", "TMVBR", "REF", "LFLeak", "LFHP"),
		FamilyDoubly:       append(RRNames(), "HTM", "TMHP", "TMHE", "TMVBR"),
		FamilyInternalTree: append(RRNames(), "HTM"),
		FamilyExternalTree: append(RRNames(), "HTM", "TMHP", "TMHE", "TMVBR", "LFLeak"),
		FamilySkipList:     append(RRNames(), "HTM", "TMHP", "TMHE", "TMVBR"),
		Family("hash"):     {"RR-V"},
	} {
		for _, name := range names {
			if !slices.Contains(cases[fam], name) {
				t.Errorf("the family table no longer defines %s/%s", fam, name)
			}
		}
	}
	for fam, names := range cases {
		for _, name := range names {
			s, err := Build(fam, VariantSpec{Name: name}, 2)
			if err != nil {
				t.Fatalf("Build(%s, %s): %v", fam, name, err)
			}
			s.Register(0)
			if !s.Insert(0, 11) || !s.Lookup(0, 11) || !s.Remove(0, 11) {
				t.Fatalf("%s/%s basic ops failed", fam, name)
			}
			s.Finish(0)
		}
	}
}

func TestBuildRejectsUndefinedCombos(t *testing.T) {
	undefined := []struct {
		f    Family
		name string
	}{
		{FamilyDoubly, "REF"},
		{FamilyDoubly, "LFLeak"},
		{FamilyInternalTree, "TMHP"},
		{FamilyInternalTree, "TMHE"},
		{FamilyInternalTree, "TMVBR"},
		{FamilyInternalTree, "LFLeak"},
		{FamilySingly, "bogus"},
	}
	for _, c := range undefined {
		if _, err := Build(c.f, VariantSpec{Name: c.name}, 1); err == nil {
			t.Errorf("Build(%s, %s) should have failed", c.f, c.name)
		}
	}
}

// TestBestWindowFitsOneAttempt holds the list families' tuned window to what
// a default has to keep, whatever number the sweep picks: on a 4 096-key set,
// a lookup past the end and an insert and a remove at the tail, run at
// BestWindow for 1, 2 and 4 threads, take no capacity abort and no serial
// commit under every TM variant the family takes. HTM is left out: its
// transactions are whole operations by design. The tree windows shrink with
// the thread count, as the paper tunes them (§5.4).
func TestBestWindowFitsOneAttempt(t *testing.T) {
	const keys = 4096
	for _, f := range []Family{FamilySingly, FamilyDoubly, Family(family.Hash)} {
		row, _ := family.ByName(string(f))
		for _, name := range row.Variants() {
			if mode, _, ok := reclaim.ModeByName(name); !ok || mode == reclaim.ModeHTM {
				continue // a lock-free comparator, or whole-operation HTM
			}
			for _, threads := range []int{1, 2, 4} {
				s, err := Build(f, VariantSpec{Name: name}, threads)
				if err != nil {
					t.Fatal(err)
				}
				s.Register(0)
				for k := uint64(keys); k >= 1; k-- { // each insert at the head
					s.Insert(0, k)
				}
				before := s.(sets.TMStatsReporter).TMStats()
				s.Lookup(0, keys+1)
				s.Insert(0, keys+1)
				s.Remove(0, keys+1)
				after := s.(sets.TMStatsReporter).TMStats()
				s.Finish(0)
				if c, ser := after.Aborts[stm.CauseCapacity]-before.Aborts[stm.CauseCapacity],
					after.SerialCommits-before.SerialCommits; c != 0 || ser != 0 {
					t.Errorf("%s/%s at W=%d (%d threads): %d capacity aborts, %d serial commits over a %d-key traversal",
						f, name, BestWindow(f, threads), threads, c, ser, keys)
				}
			}
		}
	}
	if BestWindow(FamilyInternalTree, 1) < BestWindow(FamilyInternalTree, 8) {
		t.Fatal("tree windows should shrink with thread count")
	}
}

// TestFigureSmoke runs every figure end to end at one thread count and tiny
// op counts, and checks the rows: each group's baseline reads ratio 1 and
// ahead 0, and every reservation (RR-*) series defers nothing — the paper's
// precision claim.
func TestFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke is seconds-long")
	}
	base := map[string]string{"fig2": "TMHP", "fig3": "TMHP", "fig4": "W=16",
		"fig5": "H-TMHP", "fig6": "HTM", "fig7": "HTM", "fig8": "TMHP"}
	for fig := 2; fig <= 8; fig++ {
		t.Run(strconv.Itoa(fig), func(t *testing.T) {
			var buf bytes.Buffer
			// Tiny settings: this exercises plumbing, not performance, and
			// must stay fast under the race detector.
			opts := Opts{Threads: []int{2}, OpsPerThread: 1500, TreeBits: 10, Out: &buf}
			if err := Figure(fig, opts); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			if len(lines) < 3 {
				t.Fatalf("figure %d produced %d lines", fig, len(lines))
			}
			head := strings.Split(lines[0], "\t")
			col := func(row []string, name string) string {
				i := slices.Index(head, name)
				if i < 0 {
					t.Fatalf("header lacks %s", name)
				}
				return row[i]
			}
			groups, based := map[string]bool{}, map[string]bool{}
			for _, ln := range lines[1:] {
				row := strings.Split(ln, "\t")
				if len(row) != len(head) || col(row, "figure") != fmt.Sprintf("fig%d", fig) {
					t.Fatalf("bad row: %q", ln)
				}
				groups[col(row, "panel")+"|"+col(row, "threads")] = true
				if col(row, "variant") == base[col(row, "figure")] {
					if col(row, "ratio") != "1.000" || col(row, "ahead") != "0" {
						t.Errorf("baseline row reads ratio %s, ahead %s: %q", col(row, "ratio"), col(row, "ahead"), ln)
					}
					based[col(row, "panel")+"|"+col(row, "threads")] = true
				}
				if strings.Contains(col(row, "panel")+" "+col(row, "variant"), "RR-") && col(row, "peak_deferred") != "0" {
					t.Errorf("a reservation series deferred nodes: %q", ln)
				}
			}
			if len(groups) != len(based) {
				t.Errorf("%d groups, %d baseline rows", len(groups), len(based))
			}
		})
	}
}

func TestFigureRejectsUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure(1, Opts{Out: &buf}); err == nil {
		t.Fatal("figure 1 (an illustration, not data) should be rejected")
	}
	if err := Figure(9, Opts{Out: &buf}); err == nil {
		t.Fatal("figure 9 does not exist")
	}
}
