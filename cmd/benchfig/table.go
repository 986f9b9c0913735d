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

type table struct {
	figure, panel string
	variants      []string // insertion order
	threads       []int
	cells         map[string]map[int]string
}

// tableMain is `benchfig table [-metric m] [file]`: it renders the TSV
// this program prints (a file, or stdin) as markdown tables, one per
// (figure, panel): variants as rows, thread counts as columns. The metric
// is any column the TSV's header row names.
func tableMain(args []string) {
	fs := flag.NewFlagSet("benchfig table", flag.ExitOnError)
	name := fs.String("metric", "mops", "header column to tabulate (mops, ratio, aborts_per_op, …)")
	fs.Parse(args)
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
	if err := renderTables(os.Stdout, in, *name); err != nil {
		fmt.Fprintln(os.Stderr, "benchfig table:", err)
		os.Exit(2)
	}
}

// renderTables finds the metric's column by name in each header row and
// tabulates it from the rows that follow.
func renderTables(w io.Writer, in io.Reader, metric string) error {
	var order []string
	tables := map[string]*table{}
	col := -1
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if f[0] == "figure" {
			if col = slices.Index(f, metric); col < 0 {
				return fmt.Errorf("unknown metric %q; the header names %s", metric, strings.Join(f, ", "))
			}
			continue
		}
		if col < 0 {
			return fmt.Errorf("a row before the header row: %q", line)
		}
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
		fmt.Fprintf(w, "### %s — %s (%s)\n\n| variant |", t.figure, t.panel, metric)
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
