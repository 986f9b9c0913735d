package bench

import (
	"bytes"
	"slices"
	"strings"
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

func TestNextOpMix(t *testing.T) {
	w := Workload{KeyBits: 8, LookupPct: 80}
	state := uint64(99)
	counts := [3]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		op, key := nextOp(w, &state)
		if key < 1 || key > w.KeyRange() {
			t.Fatalf("key %d out of range", key)
		}
		counts[op]++
	}
	lookPct := float64(counts[opLookup]) / n * 100
	if lookPct < 78 || lookPct > 82 {
		t.Fatalf("lookup fraction %.1f%%, want ~80%%", lookPct)
	}
	insRemRatio := float64(counts[opInsert]) / float64(counts[opRemove])
	if insRemRatio < 0.9 || insRemRatio > 1.1 {
		t.Fatalf("insert/remove ratio %.2f, want ~1", insRemRatio)
	}
}

func TestRunProducesThroughput(t *testing.T) {
	mk := func(threads int) sets.Set {
		s, err := Build(FamilySingly, VariantSpec{Name: "RR-V", Window: 8}, threads)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	res, err := Run(mk, tinyWorkload(), RunConfig{Threads: 4, Trials: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.MopsPerSec <= 0 {
		t.Fatal("no throughput measured")
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

// TestFigureSmoke runs a minimal version of every figure driver end to end
// (1 thread count, tiny ops) and sanity-checks the emitted series.
func TestFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke is seconds-long")
	}
	for fig := 2; fig <= 7; fig++ {
		fig := fig
		t.Run(string(rune('0'+fig)), func(t *testing.T) {
			var buf bytes.Buffer
			// Tiny settings: this exercises plumbing, not performance, and
			// must stay fast under the race detector on one core.
			opts := Opts{
				Quick: true, Threads: []int{2}, Trials: 1,
				OpsPerThread: 1500, TreeBits: 10, Out: &buf,
			}
			if err := Figure(fig, opts); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			lines := strings.Split(strings.TrimSpace(out), "\n")
			if len(lines) < 3 {
				t.Fatalf("figure %d produced %d lines", fig, len(lines))
			}
			if !strings.HasPrefix(lines[0], "figure\t") {
				t.Fatal("missing header")
			}
			for _, ln := range lines[1:] {
				if !strings.HasPrefix(ln, "fig") {
					t.Fatalf("bad row: %q", ln)
				}
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
