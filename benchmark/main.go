// Command benchmark is the repository's benchmark: it assembles the server
// in-process exactly as cmd/hohserver does, drives it over loopback TCP
// from four closed-loop connections, checks every reply against a
// sequential oracle, and prints every metric BENCHMARK.json names.
//
//	go run -C benchmark . -workload point-small -seed 1            # end-to-end metrics
//	go run -C benchmark . -workload point-small -seed 1 -trace 1   # per-layer metrics
//
// README.md in this directory defines the workloads, the metrics and the
// statistics that make a run repeat.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// params are a run's sizes: what -quick and the tests shrink.
type params struct {
	seconds   float64       // measured window of the end-to-end run
	setup     time.Duration // the end-to-end run repeats its set-up for this long
	setupRef  time.Duration // reference slice between two set-ups
	warmOps   int           // warm-up operations per connection, after the last set-up
	ladderOps int           // operations per connection per ladder rung
	calib     time.Duration // length of the host calibration spin
	dir       string        // where the traced run writes its spans
}

func main() {
	name := flag.String("workload", "", "point-small | point-large | batch-churn | scan-sharded")
	seed := flag.Uint64("seed", 1, "seed of the generated operation stream")
	seconds := flag.Float64("seconds", 20, "measured window; cut into forty pairs of a workload slice and a reference slice")
	trace := flag.Int("trace", 0, "1 runs the layer ladder and prints per-layer metrics instead")
	quick := flag.Bool("quick", false, "correctness smoke run: a 2 s window, a tenth of the set-ups, of the warm-up and of the ladder's operation counts")
	flag.Parse()

	// The host has two CPUs; pinning the count keeps a larger host from
	// changing what is measured.
	runtime.GOMAXPROCS(2)

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	p := params{seconds: *seconds, setup: 3 * time.Second, setupRef: 40 * time.Millisecond, warmOps: w.ladderOps / 10, ladderOps: w.ladderOps, calib: 500 * time.Millisecond, dir: "out"}
	if *quick {
		p.seconds, p.setup, p.warmOps, p.ladderOps = 2, 300*time.Millisecond, w.ladderOps/100, w.ladderOps/10
	}
	var res *result
	if *trace != 0 {
		res, err = runLadder(w, *seed, p)
	} else {
		res, err = runEndToEnd(w, *seed, p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !res.print(os.Stdout) {
		os.Exit(1)
	}
}

// print writes every reading as "name value unit", then — as the last line,
// the form the driver parses — one JSON object. It reports whether the run
// was correct.
func (r *result) print(out *os.File) bool {
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", e)
	}
	for _, set := range []map[string]metric{r.notes, r.metrics} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "%-28s %14.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	correct := r.failed == 0 && len(r.errs) == 0
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, r.metrics})
	fmt.Fprintf(out, "%s\n", line)
	return correct
}
