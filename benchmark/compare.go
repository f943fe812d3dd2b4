package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// spread is the distance between the first and third quartile of vs as
// a share of their median — the quartiles Python's
// statistics.quantiles(vs, n=4) gives. Zero for fewer than two values.
func spread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	x := append([]float64(nil), vs...)
	sort.Float64s(x)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return math.Abs(ratio(quartile(3)-quartile(1), median(x)))
}

func loadDocument(path string) (document, error) {
	var doc document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareFiles prints one row per (workload, end-to-end metric) with
// both values, how much worse B is than A, and a verdict against the
// bound in the metric table: REGRESS when B is worse by more than the
// bound (and by more than the metric's absolute floor), UNRESOLVED
// when either side's own spread is wider than the bound, PASS
// otherwise. A workload whose pass failed an output check or lost ops
// on either side reads FAILED on every row. It returns 1 on any REGRESS
// or FAILED, and 2 when the two documents cannot be compared: a file
// does not parse, a workload or a metric is in one document only, or
// there is no end-to-end pass to compare at all.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadDocument(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := loadDocument(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareDocuments(a, b, stdout)
}

func compareDocuments(a, b document, stdout io.Writer) int {
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tworse by\tbound\tspread A\tspread B\tverdict")
	rows, regressed, missing := 0, 0, 0
	for _, w := range workloads() {
		ea, eb := a.Workloads[w.name].EndToEnd, b.Workloads[w.name].EndToEnd
		if ea == nil && eb == nil {
			continue // neither invocation measured this workload
		}
		if ea == nil || eb == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t-\tMISSING\n", w.name)
			missing++
			continue
		}
		failed := !ea.Correct || !eb.Correct || ea.Failed > 0 || eb.Failed > 0
		for _, d := range endToEnd {
			ma, okA := ea.Metrics[d.Name]
			mb, okB := eb.Metrics[d.Name]
			if !okA || !okB {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t-\t-\tMISSING\n", w.name, d.Name)
				missing++
				continue
			}
			worse := ratio(mb.Value-ma.Value, ma.Value)
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(ma.Reps), spread(mb.Reps)
			verdict := "PASS"
			switch {
			case failed:
				verdict = "FAILED"
				regressed++
			case worse > d.Bound && math.Abs(mb.Value-ma.Value) > d.Floor:
				verdict = "REGRESS"
				regressed++
			case max(sa, sb) > d.Bound:
				verdict = "UNRESOLVED"
			}
			rows++
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.1f%%\t%.2f%%\t%.2f%%\t%s\n",
				w.name, d.Name, ma.Value, mb.Value, 100*worse, 100*d.Bound, 100*sa, 100*sb, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	switch {
	case missing > 0 || rows == 0:
		return 2
	case regressed > 0:
		return 1
	}
	return 0
}
