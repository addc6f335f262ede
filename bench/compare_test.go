package main

import (
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	wall := metricDef{name: "wall_s", unit: "s", better: "lower", bound: 0.25}
	fidelity := metricDef{name: "fidelity_errors", unit: "count", better: "lower"} // must stay 0
	cases := []struct {
		name     string
		d        metricDef
		old, cur []float64
		want     string
	}{
		{"same runs", wall, []float64{10, 10.1, 9.9, 10, 10.05}, []float64{10.02, 9.95, 10.1, 10, 9.97}, unchanged},
		{"slower beyond the bound", wall, []float64{10, 10.1, 9.9, 10, 10.05}, []float64{13, 13.1, 12.9, 13, 13.05}, regressed},
		{"slower within the bound", wall, []float64{10, 10.1, 9.9, 10, 10.05}, []float64{10.5, 10.6, 10.4, 10.5, 10.55}, unchanged},
		{"faster, winning every pair", wall, []float64{10, 10.1, 9.9, 10, 10.05}, []float64{8, 8.1, 7.9, 8, 8.05}, improved},
		{"spread wider than the bound", wall, []float64{6, 10, 14, 8, 12}, []float64{7, 11, 15, 9, 13}, unresolved},
		{"wide spread but every new run faster", wall, []float64{20, 25, 30, 22, 28}, []float64{10, 12, 14, 11, 13}, improved},
		{"wide spread, every new run slower: still unresolved", wall, []float64{6, 10, 14, 8, 12}, []float64{20, 25, 30, 22, 28}, unresolved},
		{"fidelity error appears", fidelity, []float64{0, 0, 0}, []float64{0, 1, 0}, regressed},
		{"fidelity stays clean", fidelity, []float64{0, 0, 0}, []float64{0, 0, 0}, unchanged},
	}
	for _, c := range cases {
		got := verdict(c.d, summarize(c.d.unit, c.old), summarize(c.d.unit, c.cur))
		if got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReportsExitCode(t *testing.T) {
	report := func(wall ...float64) suiteReport {
		return suiteReport{Seed: 1, Reps: len(wall), Workloads: []workloadResult{{
			Name: "grid-high",
			Metrics: map[string]summary{
				"wall_s":          summarize("s", wall),
				"fidelity_errors": summarize("count", make([]float64, len(wall))),
			},
		}}}
	}
	old := report(10, 10.1, 9.9, 10, 10.05)
	var out strings.Builder
	if code := compareReports(old, report(10, 10.1, 9.9, 10, 10.05), &out); code != 0 {
		t.Errorf("identical reports: exit %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "== grid-high") || !strings.Contains(out.String(), "unchanged") {
		t.Errorf("comparison lacks the workload row or verdict:\n%s", out.String())
	}
	out.Reset()
	if code := compareReports(old, report(13, 13.1, 12.9, 13, 13.05), &out); code != 1 {
		t.Errorf("30%% slower: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("comparison does not say regressed:\n%s", out.String())
	}
}
