// Command pracbench is the repository's benchmark: four workloads that
// load different layers of the simulator and its service, measured end
// to end in fresh child processes, checked against pinned output hashes,
// and attributed to layers by a separate traced pass.
//
// Run from the repository root (bench/run.sh builds it first):
//
//	bash bench/run.sh                         all workloads, 5 repetitions each, traced pass, layer microbenchmarks
//	bash bench/run.sh -out results.json       the same, saved for -compare
//	bash bench/run.sh -compare OLD.json NEW.json
//	bash bench/run.sh --workload leak --seed 2 --seconds 20 --trace 0
//
// With --workload the last line of standard output is one JSON object:
// correct, attempted, failed and the metrics (end to end with --trace 0,
// per layer with --trace 1). See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Child processes get this long before they are killed; the longest
// repetition takes a few seconds.
const childTimeout = 150 * time.Second

// minReps is the fewest repetitions a time-boxed (--seconds) run makes.
const minReps = 3

// options are the parsed command line.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	reps       int
	trace      int
	out        string
	traced     bool
	cpuprofile string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pracbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload: grid-high, grid-low, leak or service (default: all)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: seed 1 runs the base inputs, seed 2 is the held-out seed")
	fs.Float64Var(&o.seconds, "seconds", 0, "with -workload: repeat for this many seconds (at least 3 repetitions) instead of -reps")
	fs.IntVar(&o.reps, "reps", 5, "repetitions per workload, each a fresh child process")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 1 prints the per-layer metrics of a traced pass instead of the end-to-end metrics")
	fs.StringVar(&o.out, "out", "", "write the full report as JSON to this file (for -compare)")
	compare := fs.Bool("compare", false, "compare two reports: -compare OLD.json NEW.json")
	smoke := fs.Bool("smoke", false, "run every workload once in process at toy sizes, traced, and check the results")
	pin := fs.Bool("pin", false, "print the golden output hashes of every input (for re-pinning goldens.json)")
	child := fs.Bool("child", false, "internal: run one repetition of -workload and report it")
	layers := fs.Bool("layers", false, "internal: run the layer microbenchmarks and report them")
	fs.BoolVar(&o.traced, "traced", false, "internal: the traced pass (exact counts, HTTP timing wrapper)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "internal: write the child's CPU profile of the work phase here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "pracbench: -trace must be 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	code := 0
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "pracbench: -compare needs OLD.json NEW.json")
			return 2
		}
		code, err = compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	case *child:
		err = childMain(ctx, o, stdout)
	case *layers:
		err = layersMain(stdout)
	case *smoke:
		code, err = smokeMain(ctx, stdout)
	case *pin:
		err = pinMain(ctx, stdout)
	case o.workload != "":
		code, err = workloadMain(ctx, o, stdout, stderr)
	default:
		code, err = suiteMain(ctx, o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "pracbench: %v\n", err)
		return 1
	}
	return code
}

// childReport is what one repetition reports to its parent.
type childReport struct {
	Key        string             `json:"key"`
	WallS      float64            `json:"wall_s"`
	Outputs    map[string]string  `json:"outputs"` // CSV name → sha256
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Mismatches int                `json:"mismatches"`
	Errors     []string           `json:"errors,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

// runtimeSample reads the allocation and GC counters the metrics use.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPU, totalCPU                    float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   float64(s[0].Value.Uint64()),
		allocObjects: float64(s[1].Value.Uint64() + s[2].Value.Uint64()),
		gcCycles:     float64(s[3].Value.Uint64()),
		gcCPU:        s[4].Value.Float64(),
		totalCPU:     s[5].Value.Float64(),
	}
}

// measureOnce opens the workload, calls ready, runs it once and reports
// the work phase. A non-nil prof receives the CPU profile of the work
// phase alone.
func measureOnce(ctx context.Context, w workload, in inputs, ready func(), prof io.Writer) (childReport, error) {
	inst, err := w.open(in)
	if err != nil {
		return childReport{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	ready()
	runtime.GC()
	before := readRuntime()
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return childReport{}, err
		}
	}
	start := time.Now()
	o := inst.run(ctx)
	wall := time.Since(start).Seconds()
	if prof != nil {
		pprof.StopCPUProfile()
	}
	after := readRuntime()

	rep := childReport{
		Key: inst.key(), WallS: wall,
		Attempted: o.attempted, Failed: o.failed, Mismatches: o.mismatches, Errors: o.errs,
		Outputs: map[string]string{}, Metrics: o.metrics,
	}
	if rep.Metrics == nil {
		rep.Metrics = map[string]float64{}
	}
	for name, csv := range o.outputs {
		sum := sha256.Sum256([]byte(csv))
		rep.Outputs[name] = hex.EncodeToString(sum[:])
	}
	rep.Metrics["alloc_mb"] = (after.allocBytes - before.allocBytes) / 1e6
	rep.Metrics["mallocs_m"] = (after.allocObjects - before.allocObjects) / 1e6
	rep.Metrics["runtime.gc_cycles"] = after.gcCycles - before.gcCycles
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		rep.Metrics["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
	if o.simWallS > 0 && wall > 0 {
		rep.Metrics["exp.sim_busy_frac"] = o.simWallS / (wall * float64(runtime.GOMAXPROCS(0)))
	}
	if in.traced {
		counts, err := inst.counts()
		if err != nil {
			return rep, fmt.Errorf("%s: counts: %w", w.name, err)
		}
		for k, v := range counts {
			rep.Metrics[k] = v
		}
	}
	return rep, nil
}

// childMain is one repetition in a fresh process: it prints "ready" once
// set up, then its report as one JSON line.
func childMain(ctx context.Context, o options, stdout io.Writer) error {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	var f *os.File
	var prof io.Writer // stays a nil interface without -cpuprofile
	if o.cpuprofile != "" {
		if f, err = os.Create(o.cpuprofile); err != nil {
			return err
		}
		defer f.Close()
		prof = f
	}
	in := inputs{seed: o.seed, traced: o.traced}
	rep, err := measureOnce(ctx, w, in, func() { fmt.Fprintln(stdout, "ready") }, prof)
	if err != nil {
		return err
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(rep)
}

func layersMain(stdout io.Writer) error {
	// testing.Benchmark sizes each run to -test.benchtime; a fifth of a
	// second per benchmark keeps the whole set near ten seconds.
	testing.Init()
	if err := flag.Set("test.benchtime", "200ms"); err != nil {
		return err
	}
	m, err := runLayers()
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(m)
}

// repResult is one repetition as the parent saw it.
type repResult struct {
	childReport
	SetupS   float64 `json:"setup_s"`
	CPUS     float64 `json:"cpu_s"`
	MaxRSSMB float64 `json:"max_rss_mb"`
}

// childEnv is the parent's environment without fault schedules, with
// GOMAXPROCS pinned to the machine's CPU count.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		if k == "PRACSIM_FAULTS" || k == "PRACSIM_FAULT_SALT" || k == "GOMAXPROCS" {
			continue
		}
		env = append(env, kv)
	}
	return append(env, "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
}

// spawn runs one child of this binary with the given arguments and waits
// for it. With expectReady the first output line must be "ready"; the
// time until it arrives is the set-up time.
func spawn(ctx context.Context, args []string, expectReady bool, stderr io.Writer) (out []byte, setup float64, ps *os.ProcessState, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = childEnv()
	cmd.Stderr = stderr
	cmd.WaitDelay = 5 * time.Second
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, nil, err
	}
	r := bufio.NewReader(pipe)
	var readErr error
	if expectReady {
		line, err := r.ReadString('\n')
		setup = time.Since(start).Seconds()
		if err != nil || strings.TrimSpace(line) != "ready" {
			readErr = fmt.Errorf("child %v: no ready line (got %q)", args, line)
		}
	}
	out, err = io.ReadAll(r)
	readErr = errors.Join(readErr, err)
	if err := cmd.Wait(); err != nil {
		return nil, 0, nil, fmt.Errorf("child %v: %w", args, err)
	}
	if readErr != nil {
		return nil, 0, nil, readErr
	}
	return out, setup, cmd.ProcessState, nil
}

func childArgs(w string, in inputs) []string {
	args := []string{"-child", "-workload", w, "-seed", strconv.FormatInt(in.seed, 10)}
	if in.traced {
		args = append(args, "-traced")
	}
	return args
}

// runRep runs one repetition in a fresh child process.
func runRep(ctx context.Context, w string, in inputs, profPath string, stderr io.Writer) (repResult, error) {
	args := childArgs(w, in)
	if profPath != "" {
		args = append(args, "-cpuprofile", profPath)
	}
	out, setup, ps, err := spawn(ctx, args, true, stderr)
	if err != nil {
		return repResult{}, err
	}
	var rep repResult
	if err := json.Unmarshal(lastLine(out), &rep.childReport); err != nil {
		return rep, fmt.Errorf("child %s: report: %w", w, err)
	}
	rep.SetupS = setup
	rep.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rep.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rep, nil
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// measure runs fresh children of w: reps of them, or with seconds > 0 as
// many as start within that many seconds (at least minReps).
func measure(ctx context.Context, w workload, in inputs, reps int, seconds float64, stderr io.Writer) ([]repResult, error) {
	var out []repResult
	start := time.Now()
	for {
		if seconds > 0 {
			if len(out) >= minReps && since(start) >= seconds {
				break
			}
		} else if len(out) >= reps {
			break
		}
		rep, err := runRep(ctx, w.name, in, "", stderr)
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// workloadResult is one workload's end-to-end summaries and, when traced,
// its per-layer metrics.
type workloadResult struct {
	Name      string             `json:"name"`
	Key       string             `json:"key"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// fidelityErrors counts a repetition's outputs that differ from, or have
// no, pinned golden, plus its internal mismatches.
func fidelityErrors(rep childReport) int {
	n := rep.Mismatches
	for name, sum := range rep.Outputs {
		if goldens[rep.Key+"/"+name] != sum {
			n++
		}
	}
	return n
}

// summarizeReps condenses the repetitions into the end-to-end metrics.
func summarizeReps(name string, reps []repResult) workloadResult {
	res := workloadResult{Name: name, Metrics: map[string]summary{}}
	vals := map[string][]float64{}
	for _, r := range reps {
		res.Key = r.Key
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Errors = append(res.Errors, r.Errors...)
		failed := 1.0
		if r.Attempted > 0 {
			failed = float64(r.Failed) / float64(r.Attempted)
		}
		// The parent measures these; the child reports the rest.
		parent := map[string]float64{
			"wall_s": r.WallS, "cpu_s": r.CPUS, "setup_s": r.SetupS, "max_rss_mb": r.MaxRSSMB,
			"fidelity_errors": float64(fidelityErrors(r.childReport)), "failed_frac": failed,
		}
		for _, d := range e2eMetrics {
			v, ok := parent[d.name]
			if !ok {
				v, ok = r.Metrics[d.name]
			}
			if ok {
				vals[d.name] = append(vals[d.name], v)
			}
		}
	}
	for _, d := range e2eMetrics {
		if len(vals[d.name]) > 0 {
			res.Metrics[d.name] = summarize(d.unit, vals[d.name])
		}
	}
	return res
}

// correct reports whether every repetition produced the pinned outputs
// and no operation failed.
func (r workloadResult) correct() bool {
	return percentile(r.Metrics["fidelity_errors"].Values, 1) == 0 &&
		r.Failed == 0 && len(r.Errors) == 0 && r.Attempted > 0
}

// repLayers is the median over the repetitions of every layer metric
// they measured; the service's end-to-end timings reappear as layer
// metrics under the service. prefix.
func repLayers(reps []repResult) map[string]float64 {
	layers := map[string]float64{}
	for _, d := range layerMetrics {
		var xs []float64
		for _, r := range reps {
			v, ok := r.Metrics[d.name]
			if e2e, isService := strings.CutPrefix(d.name, "service."); !ok && isService {
				v, ok = r.Metrics[e2e]
			}
			if ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			layers[d.name] = median(xs)
		}
	}
	return layers
}

// tracedLayers runs the traced pass of w and merges it with the layer
// metrics of the untraced repetitions and the layer microbenchmarks.
func tracedLayers(ctx context.Context, w workload, in inputs, reps []repResult, micro map[string]float64, stderr io.Writer) (map[string]float64, error) {
	layers := repLayers(reps)
	for k, v := range micro {
		layers[k] = v
	}

	dir, err := os.MkdirTemp("", "pracbench-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	profPath := filepath.Join(dir, "cpu.pprof")
	tin := in
	tin.traced = true
	rep, err := runRep(ctx, w.name, tin, profPath, stderr)
	if err != nil {
		return nil, err
	}
	// Exact counts and the service's per-route timings exist only in the
	// traced pass.
	for k, v := range rep.Metrics {
		if strings.HasPrefix(k, "memctrl.") || strings.HasPrefix(k, "dram.") ||
			strings.HasPrefix(k, "service.") && k != "service.warm_key_frac" {
			layers[k] = v
		}
	}
	data, err := os.ReadFile(profPath)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	for bucket, share := range attribute(p) {
		layers[shareMetric(bucket)] = share
	}
	var walls []float64
	for _, r := range reps {
		walls = append(walls, r.WallS)
	}
	if len(walls) > 0 {
		layers["trace_overhead_pct"] = 100 * (rep.WallS/median(walls) - 1)
	}
	return layers, nil
}

// microLayers runs the layer microbenchmarks in their own child.
func microLayers(ctx context.Context, stderr io.Writer) (map[string]float64, error) {
	out, _, _, err := spawn(ctx, []string{"-layers"}, false, stderr)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	if err := json.Unmarshal(lastLine(out), &m); err != nil {
		return nil, fmt.Errorf("layers child: %w", err)
	}
	return m, nil
}

// lineResult is the one-line result of a single-workload run.
type lineResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gatedE2E are the end-to-end metrics every workload reports and a
// single-workload run prints: the bounded ones BENCHMARK.json names.
func gatedE2E() []metricDef {
	var out []metricDef
	for _, d := range e2eMetrics {
		if !d.serviceOnly && d.bound > 0 {
			out = append(out, d)
		}
	}
	return out
}

// workloadMain runs one workload: repetitions for -seconds (or -reps),
// then with -trace 1 the traced pass and the microbenchmarks. The last
// output line is the lineResult.
func workloadMain(ctx context.Context, o options, stdout, stderr io.Writer) (int, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return 2, err
	}
	in := inputs{seed: o.seed}
	reps, err := measure(ctx, w, in, o.reps, o.seconds, stderr)
	res := summarizeReps(w.name, reps)
	if err != nil {
		res.Failed++
		res.Attempted++
		res.Errors = append(res.Errors, err.Error())
	}
	dr := lineResult{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineMetric{}}
	if dr.Attempted == 0 {
		dr.Attempted = 1
	}
	if o.trace == 1 {
		var layers map[string]float64
		if err == nil {
			micro, merr := microLayers(ctx, stderr)
			var terr error
			layers, terr = tracedLayers(ctx, w, in, reps, micro, stderr)
			if err := errors.Join(merr, terr); err != nil {
				dr.Correct = false
				dr.Failed++
				fmt.Fprintf(stderr, "pracbench: traced pass: %v\n", err)
			}
		}
		for _, d := range layerMetrics {
			dr.Metrics[d.name] = lineMetric{Value: layers[d.name], Unit: d.unit}
		}
	} else {
		for _, d := range gatedE2E() {
			dr.Metrics[d.name] = lineMetric{Value: res.Metrics[d.name].Median, Unit: d.unit}
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintf(stderr, "pracbench: %s: %s\n", w.name, e)
	}
	if f := res.Metrics["fidelity_errors"]; percentile(f.Values, 1) > 0 {
		fmt.Fprintf(stderr, "pracbench: %s: outputs differ from the pinned goldens (%s)\n", w.name, res.Key)
	}
	line, err := json.Marshal(dr)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !dr.Correct {
		return 1, nil
	}
	return 0, nil
}

// suiteReport is the full report of every workload; -out writes it and
// -compare reads two of them.
type suiteReport struct {
	Seed       int64            `json:"seed"`
	Reps       int              `json:"reps"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workloads  []workloadResult `json:"workloads"`
}

// suiteMain runs every workload with -reps repetitions, its traced pass
// and the microbenchmarks, and prints the report. Repetitions go round
// robin across the workloads, so a slow spell of the machine lands on a
// few repetitions of each workload instead of on every repetition of
// one.
func suiteMain(ctx context.Context, o options, stdout, stderr io.Writer) (int, error) {
	rep := suiteReport{Seed: o.seed, Reps: o.reps, GOMAXPROCS: runtime.NumCPU()}
	in := inputs{seed: o.seed}
	reps := make([][]repResult, len(workloads))
	for i := 0; i < o.reps; i++ {
		for wi, w := range workloads {
			r, err := runRep(ctx, w.name, in, "", stderr)
			if err != nil {
				return 1, err
			}
			reps[wi] = append(reps[wi], r)
		}
	}
	micro, err := microLayers(ctx, stderr)
	if err != nil {
		return 1, err
	}
	for wi, w := range workloads {
		res := summarizeReps(w.name, reps[wi])
		if res.Layers, err = tracedLayers(ctx, w, in, reps[wi], micro, stderr); err != nil {
			return 1, err
		}
		rep.Workloads = append(rep.Workloads, res)
	}
	printReport(stdout, rep)
	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	for _, w := range rep.Workloads {
		if !w.correct() {
			return 1, nil
		}
	}
	return 0, nil
}

// printReport prints every workload's end-to-end metrics by name and
// unit, then the per-layer metrics side by side.
func printReport(out io.Writer, rep suiteReport) {
	fmt.Fprintf(out, "pracbench: seed %d, %d repetition(s) per workload, GOMAXPROCS %d\n", rep.Seed, rep.Reps, rep.GOMAXPROCS)
	for _, w := range rep.Workloads {
		fmt.Fprintf(out, "\n== %s  (%s)  attempted %d, failed %d\n", w.Name, w.Key, w.Attempted, w.Failed)
		fmt.Fprintf(out, "%-18s %-6s %12s %12s %12s %3s %6s\n", "metric", "unit", "median", "p25", "p75", "n", "bound")
		for _, d := range e2eMetrics {
			s, ok := w.Metrics[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(out, "%-18s %-6s %12.5g %12.5g %12.5g %3d %6s\n", d.name, d.unit, s.Median, s.P25, s.P75, s.N, boundText(d))
		}
		for _, e := range w.Errors {
			fmt.Fprintf(out, "error: %s\n", e)
		}
	}
	if len(rep.Workloads) == 0 || rep.Workloads[0].Layers == nil {
		return
	}
	fmt.Fprintf(out, "\n== per-layer (traced pass; micro = layer microbenchmarks)\n%-26s %-8s", "metric", "unit")
	for _, w := range rep.Workloads {
		fmt.Fprintf(out, " %12s", w.Name)
	}
	fmt.Fprintln(out)
	for _, d := range layerMetrics {
		fmt.Fprintf(out, "%-26s %-8s", d.name, d.unit)
		for _, w := range rep.Workloads {
			fmt.Fprintf(out, " %12.4g", w.Layers[d.name])
		}
		fmt.Fprintln(out)
	}
}

func boundText(d metricDef) string {
	if d.bound == 0 {
		return "=0"
	}
	return fmt.Sprintf("+%g%%", 100*d.bound)
}

// smokeMain runs every workload once in this process at toy sizes with
// the traced pass's profiling on, prints the report and checks that the
// outputs match the goldens and every workload's layer shares sum to 100.
func smokeMain(ctx context.Context, stdout io.Writer) (int, error) {
	rep := suiteReport{Seed: 1, Reps: 1, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	code := 0
	for _, w := range workloads {
		var prof bytes.Buffer
		var ru0, ru1 syscall.Rusage
		start := time.Now()
		var setup float64
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
			return 1, err
		}
		cr, err := measureOnce(ctx, w, inputs{seed: 1, toy: true, traced: true}, func() { setup = since(start) }, &prof)
		if err != nil {
			return 1, err
		}
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
			return 1, err
		}
		r := repResult{childReport: cr, SetupS: setup, MaxRSSMB: float64(ru1.Maxrss) / 1024,
			CPUS: rusageSeconds(ru1) - rusageSeconds(ru0)}
		res := summarizeReps(w.name, []repResult{r})
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return 1, err
		}
		res.Layers = repLayers([]repResult{r})
		var sum float64
		for bucket, share := range attribute(p) {
			res.Layers[shareMetric(bucket)] = share
			sum += share
		}
		if sum < 99 || sum > 101 {
			fmt.Fprintf(stdout, "smoke: %s layer shares sum to %.2f, want 100 ± 1\n", w.name, sum)
			code = 1
		}
		if !res.correct() {
			code = 1
		}
		rep.Workloads = append(rep.Workloads, res)
	}
	printReport(stdout, rep)
	return code, nil
}

func rusageSeconds(ru syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// pinMain computes the golden hash of every output of every input class:
// the eight seed classes of each seeded workload and the toy sizes. Its
// output replaces goldens.json when a change intends to alter model
// output.
func pinMain(ctx context.Context, stdout io.Writer) error {
	pins := map[string]string{}
	seen := map[string]bool{}
	add := func(w workload, in inputs) error {
		inst, err := w.open(in)
		if err != nil {
			return err
		}
		key := inst.key()
		inst.close()
		if seen[key] { // leak takes no seed: one class covers them all
			return nil
		}
		seen[key] = true
		cr, err := measureOnce(ctx, w, in, func() {}, nil)
		if err != nil {
			return err
		}
		if cr.Failed > 0 || cr.Mismatches > 0 {
			return fmt.Errorf("%s seed %d: %d failed, %d mismatched: %v", w.name, in.seed, cr.Failed, cr.Mismatches, cr.Errors)
		}
		for name, sum := range cr.Outputs {
			pins[cr.Key+"/"+name] = sum
		}
		return nil
	}
	for _, w := range workloads {
		if err := add(w, inputs{seed: 1, toy: true}); err != nil {
			return err
		}
		for seed := int64(1); seed <= 8; seed++ {
			if err := add(w, inputs{seed: seed}); err != nil {
				return err
			}
		}
	}
	keys := make([]string, 0, len(pins))
	for k := range pins {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %q: %q%s\n", k, pins[k], sep)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(stdout, b.String())
	return err
}

//go:embed goldens.json
var goldensJSON []byte

// goldens maps "<input key>/<csv name>" to the output's sha256.
var goldens = mustGoldens()

func mustGoldens() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(goldensJSON, &m); err != nil {
		panic(fmt.Sprintf("goldens.json: %v", err))
	}
	return m
}
