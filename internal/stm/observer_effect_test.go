package stm_test

import (
	"testing"

	"hohtx/internal/core"
	"hohtx/internal/list"
	"hohtx/internal/obs"
	"hohtx/internal/reclaim"
)

// TestObservedLookupSchedulesNoCommitHook pins that observing a structure
// does not change what its windows do. An RR-V list's lookup — W=2 over 32
// keys, so a chain of hand-overs — schedules no commit hook on any window,
// and attaching Config.Obs (always sampling) leaves that so: the hold-time
// wrapper that used to sit around the reservation scheduled one per window.
func TestObservedLookupSchedulesNoCommitHook(t *testing.T) {
	for _, tc := range []struct {
		name string
		dom  *obs.Domain
	}{
		{"detached", nil},
		{"observed", obs.NewDomain(obs.DomainConfig{Name: "effect", Threads: 2})},
	} {
		l := list.New(list.Config{Mode: reclaim.ModeRR, RRKind: core.KindV, Threads: 2,
			Window: core.Window{W: 2, NoScatter: true}, Obs: tc.dom})
		l.Register(0)
		l.Register(1)
		for k := uint64(1); k <= 32; k++ {
			l.Insert(0, k)
		}
		before := l.TMStats().Commits
		for k := uint64(1); k <= 33; k++ { // 33: a miss walks the whole list
			if got := l.Lookup(1, k); got != (k <= 32) {
				t.Fatalf("%s: Lookup(%d) = %v", tc.name, k, got)
			}
		}
		if windows := l.TMStats().Commits - before; windows < 100 {
			t.Fatalf("%s: 33 lookups committed %d windows; the chains this test is about did not run", tc.name, windows)
		}
		if l.RT.EverScheduledCommitHook(1) {
			t.Errorf("%s: a lookup window scheduled a commit hook", tc.name)
		}
		// The probe is not blind: a Remove frees its node at commit.
		if l.Remove(0, 7); !l.RT.EverScheduledCommitHook(0) {
			t.Errorf("%s: the removing tid shows no commit hook", tc.name)
		}
	}
}
