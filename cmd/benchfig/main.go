// Command benchfig regenerates the data series behind the paper's
// evaluation figures (Figures 2–7 of "Hand-Over-Hand Transactions with
// Precise Memory Reclamation", SPAA 2017) and this repository's
// reclamation-delay study (8), printing TSV to stdout, and renders that TSV
// as the markdown tables recorded in EXPERIMENTS.md.
//
// Usage:
//
//	benchfig -fig 2                          # regenerate Figure 2's series
//	benchfig -fig all -ops 20000 -treebits 14 # a fast pass over Figures 2–8
//	benchfig table fig2.tsv                  # one table per (figure, panel), Mops/s
//	benchfig table -metric ratio < fig2.tsv  # any header column by name
//
// Each panel's series are measured together at each thread count: built and
// prefilled once, then run in turns, one tenth of the operations at a time.
// Column semantics: mops is total throughput (million operations per
// second, all threads combined) over the median tenth; ratio is the median
// over tenths of the series' throughput over the figure's baseline in the
// same tenth, ratio_iqr the spread of those ten ratios (q3 − q1), and ahead
// the tenths out of 10 the series beat the baseline in; aborts_per_op and
// serial_per_op are TM conflict and serial-fallback rates; peak_deferred is
// the reclamation scheme's high-water mark of logically-deleted-but-unfreed
// nodes (always zero for the revocable reservation variants — the paper's
// point).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hohtx/internal/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "table" {
		tableMain(os.Args[2:])
		return
	}
	fig := flag.String("fig", "all", "figure to regenerate: 2..8 or 'all' (2..8)")
	threads := flag.String("threads", "1,2,4,8", "comma-separated thread counts")
	seed := flag.Int64("seed", 0, "workload seed (default: fixed)")
	ops := flag.Int("ops", 0, "per-thread operations per series (default: 200000, paper uses 1e6)")
	treebits := flag.Int("treebits", 0, "key bits for the big tree panels (default: 21 as in the paper)")
	flag.Parse()

	var ths []int
	for _, part := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "benchfig: bad thread count %q\n", part)
			os.Exit(2)
		}
		ths = append(ths, n)
	}
	opts := bench.Opts{
		Threads: ths, Seed: *seed, OpsPerThread: *ops, TreeBits: *treebits, Out: os.Stdout,
	}

	var figs []int
	if *fig == "all" {
		figs = []int{2, 3, 4, 5, 6, 7, 8}
	} else {
		n, err := strconv.Atoi(*fig)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: bad -fig %q\n", *fig)
			os.Exit(2)
		}
		figs = []int{n}
	}
	for _, n := range figs {
		fmt.Printf("# Figure %d\n", n)
		if err := bench.Figure(n, opts); err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: figure %d: %v\n", n, err)
			os.Exit(1)
		}
	}
}
