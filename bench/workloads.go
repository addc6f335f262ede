package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pracsim/internal/exp"
	"pracsim/internal/exp/shard"
	"pracsim/internal/sim"
	"pracsim/internal/ticks"
)

// inputs is everything a workload instance is built from.
type inputs struct {
	seed   int64
	toy    bool // the smoke test's sizes: the same paths in well under a second
	traced bool // the traced pass: exact layer counts and the HTTP timing wrapper
}

// workload is one benchmark workload: a set of inputs chosen to load a
// different mix of the repository's layers.
type workload struct {
	name string
	why  string
	open func(in inputs) (instance, error)
}

// instance is one opened workload: open did the set-up (inputs chosen,
// stores, journals and services opened), run is the timed work.
type instance interface {
	// key fingerprints the chosen inputs; goldens are pinned under it.
	key() string
	run(ctx context.Context) outcome
	// counts reports exact per-layer counts after a traced run, read
	// through the layers' public APIs only.
	counts() (map[string]float64, error)
	close()
}

// outcome is what one timed run produced.
type outcome struct {
	outputs   map[string]string // CSV name → content, checked against the goldens
	attempted int               // operations attempted: simulations, experiments, jobs
	failed    int               // operations that failed
	errs      []string
	// mismatches counts outputs that must equal another output of the
	// same run and do not (a warm service job's CSV against the cold one).
	mismatches int
	// simWallS sums the host time of every simulation the run executed
	// (zero where the workload hides its simulations).
	simWallS float64
	metrics  map[string]float64
}

func (o *outcome) fail(err error) {
	o.failed++
	o.errs = append(o.errs, err.Error())
}

var workloads = []workload{
	{
		name: "grid-high",
		why:  "Fig11 over four DRAM-bound workloads: memctrl, dram, cache and the engine carry the simulation and the per-access allocation sites fire on every LLC miss",
		open: gridOpener(
			exp.Scale{Warmup: 10_000, Measured: 20_000, Workloads: []string{"433.milc", "470.lbm", "429.mcf", "nutch"}},
			exp.Scale{Warmup: 1_000, Measured: 2_000, Workloads: []string{"433.milc"}},
		),
	},
	{
		name: "grid-low",
		why:  "Fig11 over six cache-resident workloads: the controller idles, so cpu, trace, cache and the window solver dominate and a memctrl change should not move it",
		open: gridOpener(
			exp.Scale{Warmup: 50_000, Measured: 150_000, Workloads: []string{"444.namd", "631.deepsjeng", "458.sjeng", "456.hmmer", "403.gcc", "625.x264"}},
			exp.Scale{Warmup: 4_000, Measured: 12_000, Workloads: []string{"444.namd"}},
		),
	},
	{
		name: "leak",
		why:  "the PRACLeak suite: attacker pumps drive Alerts, RFMs and the controller's maintenance path with no cores, caches, traces or window solving",
		open: func(in inputs) (instance, error) {
			if in.toy {
				return &leakRun{fig3: ticks.FromUS(200), symbols: 2, enc: 200, fig5Stride: 128, fig9Stride: 128}, nil
			}
			return &leakRun{fig3: ticks.FromMS(2), symbols: 16, enc: 200, fig5Stride: 16, fig9Stride: 32}, nil
		},
	},
	{
		name: "service",
		why:  "pracsimd in process: a cold Fig11+Fig12 job writes through queue, lease, ack, journal and store, then warm resubmits only read",
		open: openService,
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// shifted moves the boundary between warm-up and measurement by k/8 of
// the warm-up, k = (seed-1) mod 8. Seed 1 runs the base budgets; every
// seed simulates the same number of instructions per core, so a seed
// changes the measured window, and with it every output byte, but not
// the amount of work. That keeps run-to-run spread across seeds as
// narrow as the spread within one.
func shifted(s exp.Scale, seed int64) exp.Scale {
	k := ((seed-1)%8 + 8) % 8
	d := s.Warmup * k / 8
	s.Warmup += d
	s.Measured -= d
	return s
}

func scaleKey(s exp.Scale) string {
	return fmt.Sprintf("warmup=%d/measured=%d/workloads=%s", s.Warmup, s.Measured, strings.Join(s.Workloads, ","))
}

func gridOpener(full, toy exp.Scale) func(in inputs) (instance, error) {
	return func(in inputs) (instance, error) {
		base := full
		if in.toy {
			base = toy
		}
		return &gridRun{scale: shifted(base, in.seed), traced: in.traced}, nil
	}
}

// gridRun is a cold Runner.Fig11 over one scale, store and journal off.
type gridRun struct {
	scale  exp.Scale
	traced bool
	r      *exp.Runner
}

func (g *gridRun) key() string { return "fig11/" + scaleKey(g.scale) }

func (g *gridRun) run(ctx context.Context) outcome {
	var opts exp.SessionOptions
	if g.traced {
		// Shard 0 of 1 owns every run and records it for ExportShard,
		// which is where counts reads the exact layer counts from.
		opts.Shard = shard.Spec{Index: 0, Count: 1}
	}
	g.r = exp.NewRunnerWith(g.scale, opts)
	res, err := g.r.Fig11()
	tel := g.r.Telemetry()
	o := outcome{attempted: len(tel), metrics: simMetrics(tel)}
	for _, t := range tel {
		o.simWallS += float64(t.T.WallNS) / 1e9
	}
	o.metrics["exp.runs_executed"] = float64(g.r.Executed())
	if err != nil {
		o.attempted++
		o.fail(err)
		return o
	}
	o.outputs = map[string]string{"fig11.csv": res.CSV()}
	return o
}

// simMetrics condenses per-simulation telemetry into the sim and exp
// layer metrics.
func simMetrics(tel []exp.RunTelemetry) map[string]float64 {
	m := map[string]float64{}
	if len(tel) == 0 {
		return m
	}
	var wallNS, steps, simTicks float64
	ms := make([]float64, len(tel))
	for i, t := range tel {
		wallNS += float64(t.T.WallNS)
		steps += float64(t.T.EngineSteps)
		simTicks += float64(t.T.SimTicks)
		ms[i] = float64(t.T.WallNS) / 1e6
	}
	m["sim.engine_steps"] = steps
	if steps > 0 {
		m["sim.ns_per_step"] = wallNS / steps
	}
	if wallNS > 0 {
		m["sim.mticks_per_s"] = simTicks / wallNS * 1e3
	}
	m["exp.sim_ms.p50"] = percentile(ms, 0.5)
	m["exp.sim_ms.p75"] = percentile(ms, 0.75)
	m["exp.sim_ms.max"] = percentile(ms, 1)
	return m
}

func (g *gridRun) counts() (map[string]float64, error) {
	if g.r == nil {
		return nil, fmt.Errorf("counts before run")
	}
	dir, err := os.MkdirTemp("", "pracbench-shard-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "all.runs")
	if _, err := g.r.ExportShard(path); err != nil {
		return nil, err
	}
	entries, err := shard.ReadFile(path, sim.SchemaVersion)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, e := range entries {
		res, err := sim.DecodeResult(e.Payload)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Key, err)
		}
		m["memctrl.requests"] += float64(res.Ctrl.Reads + res.Ctrl.Writes)
		m["memctrl.rfms"] += float64(res.Ctrl.ABORFMs + res.Ctrl.PolicyRFMs)
		m["dram.acts"] += float64(res.DRAM.ACTs)
		m["dram.alerts"] += float64(res.DRAM.AlertsAsserted)
	}
	return m, nil
}

func (g *gridRun) close() {}

// leakRun is the PRACLeak suite as `pracleak -store off` runs it, at
// reduced sweep sizes: Table 2's symbol count and the key strides of
// Figures 5 and 9 set its length, not its mix.
type leakRun struct {
	fig3                   ticks.T
	symbols, enc           int
	fig5Stride, fig9Stride int
}

func (l *leakRun) key() string {
	return fmt.Sprintf("leak/fig3=%d/table2=%d/enc=%d/fig5=%d/fig9=%d", l.fig3, l.symbols, l.enc, l.fig5Stride, l.fig9Stride)
}

func (l *leakRun) run(ctx context.Context) outcome {
	o := outcome{outputs: map[string]string{}, metrics: map[string]float64{}}
	steps := []struct {
		name string
		fn   func() (exp.Report, error)
	}{
		{"fig3", func() (exp.Report, error) { return exp.RunFig3(l.fig3) }},
		{"table2", func() (exp.Report, error) { return exp.RunTable2(l.symbols) }},
		{"fig4", func() (exp.Report, error) { return exp.RunFig4(l.enc) }},
		{"fig5", func() (exp.Report, error) { return exp.RunFig5(l.enc, l.fig5Stride) }},
		{"fig9", func() (exp.Report, error) { return exp.RunFig9(l.enc, l.fig9Stride) }},
	}
	for _, s := range steps {
		if ctx.Err() != nil {
			o.fail(ctx.Err())
			break
		}
		o.attempted++
		rep, err := s.fn()
		if err != nil {
			o.fail(err)
			continue
		}
		o.outputs[s.name+".csv"] = rep.CSV()
	}
	return o
}

func (l *leakRun) counts() (map[string]float64, error) { return nil, nil }
func (l *leakRun) close()                              {}
