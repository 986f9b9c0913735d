package main

import (
	"bytes"
	"strings"
	"testing"
)

const sample = "# Figure 2\n" +
	"figure\tpanel\tvariant\tthreads\tmops\tratio\n" +
	"fig2\t6bit/0%\tTMHP\t1\t1.5000\t1.000\n" +
	"fig2\t6bit/0%\tRR-V\t1\t3.0000\t2.000\n" +
	"fig2\t6bit/0%\tRR-V\t2\t4.0000\t1.800\n"

// TestTableFindsTheColumnByName: the metric is whatever column the header
// row names, and an unknown one is refused with the names the header has.
func TestTableFindsTheColumnByName(t *testing.T) {
	var out bytes.Buffer
	if err := renderTables(&out, strings.NewReader(sample), "ratio"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"### fig2 — 6bit/0% (ratio)", "| RR-V | 2.000 | 1.800 |", "| TMHP | 1.000 | — |"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("no %q in\n%s", want, out.String())
		}
	}
	err := renderTables(&out, strings.NewReader(sample), "relstd")
	if err == nil || !strings.Contains(err.Error(), "figure, panel, variant, threads, mops, ratio") {
		t.Fatalf("an unknown metric should list the header, got %v", err)
	}
}
