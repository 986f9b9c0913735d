package bench

import (
	"fmt"
	"os"
	"testing"

	"hohtx/internal/sets"
)

func TestQuickCompare(t *testing.T) {
	if os.Getenv("QB") == "" {
		t.Skip("set QB=1 to run the ad-hoc comparison")
	}
	wl := Workload{KeyBits: 8, LookupPct: 33, OpsPerThread: 20000}
	for _, name := range []string{"RR-V", "RR-XO", "RR-FA", "HTM", "TMHP", "REF", "LFLeak", "LFHP"} {
		res, err := Run(func(th int) sets.Set {
			s, err := Build(FamilySingly, VariantSpec{Name: name}, th)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, wl, RunConfig{Threads: 4, Trials: 1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%-8s %8.3f Mops/s aborts/op=%.3f serial/op=%.4f\n",
			name, res.MopsPerSec, res.AbortsPerOp, res.SerialPerOp)
	}
}
