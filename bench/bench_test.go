package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs all four workloads in process at toy sizes with the
// traced pass's profiling on. smokeMain exits non-zero when an output
// misses its golden or a workload's layer shares do not sum to 100 ± 1.
func TestSmoke(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-smoke"}, &out, &out); code != 0 {
		t.Fatalf("smoke exited %d:\n%s", code, out.String())
	}
	report := out.String()
	blocks := strings.Split(report, "\n== ")
	for _, w := range workloads {
		var block string
		for _, b := range blocks {
			if strings.HasPrefix(b, w.name+" ") {
				block = b
			}
		}
		if block == "" {
			t.Errorf("no report block for %s:\n%s", w.name, report)
			continue
		}
		for _, d := range e2eMetrics {
			if d.serviceOnly && w.name != "service" {
				continue
			}
			line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.name) + ` +` + regexp.QuoteMeta(d.unit) + ` `)
			if !line.MatchString(block) {
				t.Errorf("%s: metric %s with unit %s not printed", w.name, d.name, d.unit)
			}
		}
		if !regexp.MustCompile(`(?m)^fidelity_errors +count +0 `).MatchString(block) {
			t.Errorf("%s: fidelity_errors not 0:\n%s", w.name, block)
		}
	}
}

// TestSmokeTamperedGolden checks that one wrong golden hash is one
// fidelity error and a failing exit.
func TestSmokeTamperedGolden(t *testing.T) {
	key := "fig11/warmup=1000/measured=2000/workloads=433.milc/fig11.csv"
	orig, ok := goldens[key]
	if !ok {
		t.Fatalf("no golden pinned for %s", key)
	}
	goldens[key] = strings.Repeat("0", len(orig))
	defer func() { goldens[key] = orig }()

	var out strings.Builder
	if code := run([]string{"-smoke"}, &out, &out); code != 1 {
		t.Fatalf("smoke with a tampered golden exited %d, want 1:\n%s", code, out.String())
	}
	block := strings.SplitN(strings.SplitN(out.String(), "\n== grid-high ", 2)[1], "\n== ", 2)[0]
	if !regexp.MustCompile(`(?m)^fidelity_errors +count +1 `).MatchString(block) {
		t.Errorf("grid-high does not report fidelity_errors=1:\n%s", block)
	}
}

// TestBenchmarkJSONMatchesTables keeps the repository's BENCHMARK.json
// in step with the workloads and metric tables the benchmark reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	gated := gatedE2E()
	if len(bj.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark gates %d", len(bj.EndToEnd), len(gated))
	}
	for i, d := range gated {
		e := bj.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, e, d)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, d := range layerMetrics {
		e := bj.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, e, d)
		}
	}
}
