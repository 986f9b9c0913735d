package family

import (
	"reflect"
	"strings"
	"testing"

	"hohtx/internal/core"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// TestEveryVariantBuildsAndRuns builds every row × variant the table
// defines and runs the basic operations on it, under the name it was asked
// for — whatever a row says it takes, it takes — and its drained memory
// books balance.
func TestEveryVariantBuildsAndRuns(t *testing.T) {
	for _, name := range Names() {
		row, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range row.Variants() {
			s, err := row.Build(v, reclaim.Config{Threads: 2})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v, err)
			}
			if label, _, _ := strings.Cut(s.Name(), "/"); label != v {
				t.Errorf("%s/%s: built %q", name, v, s.Name())
			}
			s.Register(0)
			if !s.Insert(0, 11) || !s.Lookup(0, 11) || s.Insert(0, 11) || !s.Remove(0, 11) || s.Lookup(0, 11) {
				t.Errorf("%s/%s: basic operations failed", name, v)
			}
			s.Insert(0, 12)
			s.Insert(0, 13)
			s.Finish(0)
			if row.Holds != nil && !row.Holds(s) {
				t.Errorf("%s/%s: %s violated on a quiescent structure", name, v, row.Invariant)
			}
			// Each structure answers for its own shape: sentinels, nodes per key.
			if err := s.Books(uint64(len(s.Snapshot()))).Check(true); err != nil {
				t.Errorf("%s/%s: %v", name, v, err)
			}
		}
	}
	if _, err := ByName("ring"); err == nil {
		t.Error("ByName accepted an unknown family")
	}
}

// TestRowsMatchTheirConstructors pins the two facts a row restates about
// its structure: the serial-fallback threshold the constructor defaults to,
// and which modes the constructor accepts (a mode the row refuses must be
// one the constructor refuses too, so the table cannot hide a structure's
// capability — or claim one it lacks, which TestEveryVariantBuildsAndRuns
// would catch).
func TestRowsMatchTheirConstructors(t *testing.T) {
	for _, name := range Names() {
		row, _ := ByName(name)
		s := row.New(reclaim.Config{Threads: 1})
		// Every row's structure embeds the chassis, whose RT is the runtime.
		rt := reflect.ValueOf(s).Elem().FieldByName("RT").Interface().(*stm.Runtime)
		if got := rt.Profile().MaxAttempts; got != row.Attempts {
			t.Errorf("%s: constructor serializes after %d attempts, the row says %d", name, got, row.Attempts)
		}
		for _, m := range reclaim.Modes() {
			if row.Takes(m) {
				continue
			}
			func() {
				defer func() { recover() }()
				row.New(reclaim.Config{Mode: m, Threads: 1})
				t.Errorf("%s: the constructor builds %v, the row does not offer it", name, m)
			}()
		}
	}
}

// TestEveryFamilyImplementsEveryView: a TM-backed structure answers every
// optional view internal/sets defines (they all come from the chassis), in
// every mode it takes.
func TestEveryFamilyImplementsEveryView(t *testing.T) {
	for _, name := range Names() {
		row, _ := ByName(name)
		for _, m := range reclaim.Modes() {
			if !row.Takes(m) {
				continue
			}
			var s sets.Set = row.New(reclaim.Config{Mode: m, RRKind: core.KindV, Threads: 2})
			for view, ok := range map[string]bool{
				"TMStatsReporter": implements[sets.TMStatsReporter](s),
				"ReclaimReporter": implements[sets.ReclaimReporter](s),
				"BusyReporter":    implements[sets.BusyReporter](s),
				"GuardReporter":   implements[sets.GuardReporter](s),
				"ObsReporter":     implements[sets.ObsReporter](s),
				"MemoryReporter":  implements[sets.MemoryReporter](s),
			} {
				if !ok {
					t.Errorf("%s/%v does not implement sets.%s", name, m, view)
				}
			}
		}
	}
}

func implements[V any](s sets.Set) bool {
	_, ok := s.(V)
	return ok
}
