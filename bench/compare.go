package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of a comparison.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict compares one metric's repetitions between an old and a new
// report.
//
//   - fidelity_errors and failed_frac regress on any rise of their
//     largest value.
//   - When the spread (quartile distance over median, the wider of the
//     two sides) exceeds the bound, the metric is unresolved unless every
//     new run beats every old run.
//   - Otherwise it regresses when worse exceeds the bound, and improves
//     when the medians differ by more than the old spread and the new
//     side wins at least nine tenths of all run pairs.
func verdict(d metricDef, old, cur summary) string {
	// worse is the change of the median in the metric's bad direction, as
	// a share of the old median.
	var worse float64
	sign := 1.0
	if d.better == "higher" {
		sign = -1
	}
	switch {
	case old.Median != 0:
		worse = sign * (cur.Median - old.Median) / math.Abs(old.Median)
	case cur.Median != old.Median:
		worse = sign * math.Copysign(math.Inf(1), cur.Median)
	}
	if d.bound == 0 {
		oldMax, curMax := percentile(old.Values, 1), percentile(cur.Values, 1)
		switch {
		case curMax > oldMax:
			return regressed
		case curMax < oldMax:
			return improved
		}
		return unchanged
	}
	wins := pairWins(d, old.Values, cur.Values)
	total := len(old.Values) * len(cur.Values)
	if math.Max(old.spread(), cur.spread()) > d.bound {
		if total > 0 && wins == total {
			return improved
		}
		return unresolved
	}
	switch {
	case worse > d.bound:
		return regressed
	case -worse > old.spread() && total > 0 && float64(wins) >= 0.9*float64(total):
		return improved
	}
	return unchanged
}

// pairWins counts the (old, new) run pairs the new run wins; ties win
// for neither side.
func pairWins(d metricDef, old, cur []float64) int {
	wins := 0
	for _, o := range old {
		for _, c := range cur {
			if d.better == "higher" && c > o || d.better == "lower" && c < o {
				wins++
			}
		}
	}
	return wins
}

func readReport(path string) (suiteReport, error) {
	var r suiteReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints, for each workload in its own block, every
// end-to-end metric's medians and quartiles on both sides, the change,
// the bound and the verdict. It returns exit code 1 when any metric
// regressed.
func compareFiles(oldPath, newPath string, out io.Writer) (int, error) {
	old, err := readReport(oldPath)
	if err != nil {
		return 1, err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return 1, err
	}
	return compareReports(old, cur, out), nil
}

func compareReports(old, cur suiteReport, out io.Writer) int {
	fmt.Fprintf(out, "old: seed %d, %d rep(s); new: seed %d, %d rep(s)\n", old.Seed, old.Reps, cur.Seed, cur.Reps)
	oldBy := map[string]workloadResult{}
	for _, w := range old.Workloads {
		oldBy[w.Name] = w
	}
	code := 0
	for _, w := range cur.Workloads {
		ow, ok := oldBy[w.Name]
		if !ok {
			fmt.Fprintf(out, "\n== %s: not in the old report\n", w.Name)
			continue
		}
		fmt.Fprintf(out, "\n== %s\n%-16s %-6s %28s %28s %9s %6s  %s\n",
			w.Name, "metric", "unit", "old median [p25, p75]", "new median [p25, p75]", "delta", "bound", "verdict")
		for _, d := range e2eMetrics {
			o, ok1 := ow.Metrics[d.name]
			n, ok2 := w.Metrics[d.name]
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(d, o, n)
			if v == regressed {
				code = 1
			}
			delta := 0.0
			if o.Median != 0 {
				delta = 100 * (n.Median - o.Median) / math.Abs(o.Median)
			}
			fmt.Fprintf(out, "%-16s %-6s %28s %28s %+8.2f%% %6s  %s\n",
				d.name, d.unit, quart(o), quart(n), delta, boundText(d), v)
		}
	}
	return code
}

func quart(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.P25, s.P75)
}
