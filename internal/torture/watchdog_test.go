package torture

import (
	"fmt"
	"strings"
	"testing"

	"hohtx/internal/arena"
	"hohtx/internal/family"
	"hohtx/internal/list"
)

// stallList is a list whose lookups park until the gate opens.
type stallList struct {
	*list.List
	gate chan struct{}
}

func (s stallList) Lookup(tid int, key uint64) bool {
	<-s.gate
	return s.List.Lookup(tid, key)
}

// TestWatchdogFires stalls every worker at its first lookup and checks that
// the run comes back as an error at the cell's deadline, carrying what a
// hang needs to be diagnosed from a CI log: the repro line, each shard's
// transaction statistics by cause, who holds which worker id, and every
// goroutine's stack — the parked frame among them.
func TestWatchdogFires(t *testing.T) {
	cfg := Config{Structure: family.Singly, Variant: "RR-V", Threads: 2, Ops: 200, Keys: 32}.withDefaults()
	inst, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	defer close(gate) // lets the abandoned run finish
	inst.set = stallList{inst.set.(*list.List), gate}
	_, err = runOn(cfg, inst)
	if err == nil {
		t.Fatal("a run whose workers never finish was not failed by the watchdog")
	}
	msg := err.Error()
	for _, want := range []string{
		"repro: " + cfg.String(),
		"watchdog: not finished after 4s",
		"shard 0: commits=",
		"leased by worker ",
		"goroutine ",
		"torture.stallList.Lookup",
		"flight recorder (singly/RR-V",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("watchdog report missing %q:\n%s", want, msg)
		}
	}
}

// TestBatchedReuseTerminates is the regression test for the hang ROADMAP 1(a)
// recorded (EXPERIMENTS.md, "The batch that never committed"): batches on a
// list whose frees are immediate, or nearly, and whose free slots cross
// threads at once (the shared policy). About one such cell in thirty never
// finished; under the watchdog one that does not is a failure with a dump.
// The ROADMAP's three repro lines (doubly RR-DM seed 51, doubly TMVBR seeds
// 51 and 52) are among the cells.
func TestBatchedReuseTerminates(t *testing.T) {
	seeds := uint64(300)
	if testing.Short() {
		seeds = 25
	}
	for _, structure := range []string{family.Singly, family.Doubly} {
		for _, variant := range []string{"RR-V", "RR-DM", "TMVBR", "HTM"} {
			t.Run(structure+"/"+variant, func(t *testing.T) {
				for seed := uint64(1); seed <= seeds; seed++ {
					_, err := Run(Config{
						Structure: structure, Variant: variant, Policy: arena.PolicyShared,
						Threads: 5, Ops: 600, Keys: 64, BatchOps: 8, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestDoublyBatchWindowsTerminate covers the cell once recorded as hanging
// in 1–5 % of seeds: `-structure doubly -policy 1 -batch 8 -threads 5 -ops
// 600 -keys 64` under RR-DM and TMVBR, at windows 4, 7, 8 and 16. Window 4,
// the default, is TestBatchedReuseTerminates's doubly/RR-DM and
// doubly/TMVBR cells; this test runs the other three. Every run is under
// the watchdog's deadline, so one that does not finish fails with a dump
// instead of hanging the suite.
func TestDoublyBatchWindowsTerminate(t *testing.T) {
	seeds := uint64(30)
	if testing.Short() {
		seeds = 3
	}
	for _, variant := range []string{"RR-DM", "TMVBR"} {
		for _, window := range []int{7, 8, 16} {
			t.Run(fmt.Sprintf("%s/W=%d", variant, window), func(t *testing.T) {
				for seed := uint64(1); seed <= seeds; seed++ {
					_, err := Run(Config{
						Structure: family.Doubly, Variant: variant, Policy: arena.PolicyShared,
						Threads: 5, Ops: 600, Keys: 64, BatchOps: 8, Window: window, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}
