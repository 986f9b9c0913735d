package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// metric is a TSV column `benchfig table` can tabulate.
type metric struct {
	name  string
	col   int
	label string
}

var metrics = []metric{
	{"mops", 5, "Mops/s"},
	{"aborts", 7, "aborts/op"},
	{"serial", 8, "serial/op"},
	{"deferred", 9, "peak deferred"},
	{"read", 10, "read-conflict aborts/op"},
	{"valid", 11, "validation aborts/op"},
	{"wlock", 12, "write-lock aborts/op"},
	{"cap", 13, "capacity aborts/op"},
	{"delay", 14, "mean reclamation delay (ops)"},
	{"rp50", 15, "p50 reclamation delay (ops)"},
	{"rp99", 16, "p99 reclamation delay (ops)"},
	{"rmax", 17, "max reclamation delay (ops)"},
}

type table struct {
	figure, panel string
	variants      []string // insertion order
	threads       []int
	cells         map[string]map[int]string
}

// tableMain is `benchfig table [-metric m] [file]`: it renders the TSV
// this program prints (a file, or stdin) as markdown tables, one per
// (figure, panel): variants as rows, thread counts as columns.
func tableMain(args []string) {
	fs := flag.NewFlagSet("benchfig table", flag.ExitOnError)
	name := fs.String("metric", "mops", "column to tabulate: mops, aborts, serial, deferred, read, valid, wlock, cap, delay, rp50, rp99, rmax")
	fs.Parse(args)
	m := slices.IndexFunc(metrics, func(m metric) bool { return m.name == *name })
	if m < 0 {
		fmt.Fprintf(os.Stderr, "benchfig table: unknown metric %q\n", *name)
		os.Exit(2)
	}
	in := os.Stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchfig table:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	if err := renderTables(os.Stdout, in, metrics[m].col, metrics[m].label); err != nil {
		fmt.Fprintln(os.Stderr, "benchfig table:", err)
		os.Exit(1)
	}
}

func renderTables(w io.Writer, in io.Reader, col int, label string) error {
	var order []string
	tables := map[string]*table{}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "figure\t") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) <= col {
			continue
		}
		th, err := strconv.Atoi(f[3])
		if err != nil {
			continue
		}
		key := f[0] + "|" + f[1]
		t, ok := tables[key]
		if !ok {
			t = &table{figure: f[0], panel: f[1], cells: map[string]map[int]string{}}
			tables[key] = t
			order = append(order, key)
		}
		if t.cells[f[2]] == nil {
			t.cells[f[2]] = map[int]string{}
			t.variants = append(t.variants, f[2])
		}
		t.cells[f[2]][th] = f[col]
		if !slices.Contains(t.threads, th) {
			t.threads = append(t.threads, th)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, key := range order {
		t := tables[key]
		slices.Sort(t.threads)
		fmt.Fprintf(w, "### %s — %s (%s)\n\n| variant |", t.figure, t.panel, label)
		for _, th := range t.threads {
			fmt.Fprintf(w, " %dT |", th)
		}
		fmt.Fprint(w, "\n|---|"+strings.Repeat("---|", len(t.threads))+"\n")
		for _, v := range t.variants {
			fmt.Fprintf(w, "| %s |", v)
			for _, th := range t.threads {
				cell := t.cells[v][th]
				if cell == "" {
					cell = "—"
				}
				fmt.Fprintf(w, " %s |", cell)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return nil
}
