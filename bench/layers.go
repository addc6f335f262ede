package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pracsim/internal/analysis"
	"pracsim/internal/attack"
	"pracsim/internal/cache"
	"pracsim/internal/cpu"
	"pracsim/internal/dram"
	"pracsim/internal/exp/journal"
	"pracsim/internal/exp/store"
	"pracsim/internal/memctrl"
	"pracsim/internal/mitigation"
	"pracsim/internal/sim"
	"pracsim/internal/ticks"
	"pracsim/internal/trace"
)

// layerBench is one microbenchmark of a layer's exported API. Each runs
// in the layers child through testing.Benchmark and, as Benchmark<name>,
// under `go test -bench`. One operation is what the metric names: one
// engine step, one core cycle, one request, one call.
type layerBench struct {
	name    string
	fn      func(b *testing.B)
	metrics []layerOutput
}

// layerOutput maps a benchmark result onto one metric: time per
// operation in ns, us or ms, or allocations per operation.
type layerOutput struct {
	metric string
	kind   string // "ns", "us", "ms" or "allocs"
}

var layerBenches = []layerBench{
	{"EngineStep", benchEngineStep, []layerOutput{{"sim.step_ns", "ns"}}},
	{"CoreTick", benchCoreTick, []layerOutput{{"cpu.tick_ns", "ns"}, {"cpu.tick_allocs", "allocs"}}},
	{"SynthNext", benchSynthNext, []layerOutput{{"trace.next_ns", "ns"}, {"trace.next_allocs", "allocs"}}},
	{"CacheHit", benchCacheHit, []layerOutput{{"cache.access_hit_ns", "ns"}}},
	{"CacheMiss", benchCacheMiss, []layerOutput{{"cache.access_miss_ns", "ns"}, {"cache.access_allocs", "allocs"}}},
	{"ControllerRequest", benchControllerRequest, []layerOutput{{"memctrl.request_ns", "ns"}, {"memctrl.request_allocs", "allocs"}}},
	{"DRAMIssue", benchDRAMIssue, []layerOutput{{"dram.issue_ns", "ns"}}},
	{"PolicyDue", benchPolicyDue, []layerOutput{{"mitigation.due_ns", "ns"}}},
	{"SolveWindow", benchSolveWindow, []layerOutput{{"analysis.solve_window_ms", "ms"}}},
	{"ProbeSample", benchProbeSample, []layerOutput{{"attack.probe_sample_ns", "ns"}}},
	{"StorePut", benchStorePut, []layerOutput{{"store.put_us", "us"}}},
	{"StoreGet", benchStoreGet, []layerOutput{{"store.get_us", "us"}}},
	{"EncodeResult", benchEncodeResult, []layerOutput{{"sim.encode_us", "us"}}},
	{"DecodeResult", benchDecodeResult, []layerOutput{{"sim.decode_us", "us"}}},
	{"JournalAppend", benchJournalAppend, []layerOutput{{"journal.append_us", "us"}}},
	{"JournalSync", benchJournalSync, []layerOutput{{"journal.sync_ms", "ms"}}},
}

// runLayers runs every microbenchmark once through testing.Benchmark.
func runLayers() (map[string]float64, error) {
	out := map[string]float64{}
	for _, lb := range layerBenches {
		r := testing.Benchmark(lb.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("layer benchmark %s failed", lb.name)
		}
		perOp := float64(r.T.Nanoseconds()) / float64(r.N)
		for _, o := range lb.metrics {
			switch o.kind {
			case "ns":
				out[o.metric] = perOp
			case "us":
				out[o.metric] = perOp / 1e3
			case "ms":
				out[o.metric] = perOp / 1e6
			case "allocs":
				out[o.metric] = float64(r.MemAllocs) / float64(r.N)
			}
		}
	}
	return out, nil
}

// sinks keep benchmarked results alive so the compiler cannot drop the
// calls that produce them.
var (
	sinkRecord trace.Record
	sinkInt    int
	sinkTicks  ticks.T
	sinkBytes  []byte
	sinkResult sim.RunResult
)

// The simulation engine with the system's clock domains: four core
// tickers at the core period and one controller ticker.
func benchEngineStep(b *testing.B) {
	e := sim.NewEngine()
	nop := func(ticks.T) {}
	for i := 0; i < 4; i++ {
		e.AddTicker(cpu.CyclePeriod, 0, nop)
	}
	e.AddTicker(memctrl.CyclePeriod, 0, nop)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(e.Now() + ticks.T(b.N)*cpu.CyclePeriod)
}

// hitMem is a memory port on which every access hits at L1 latency.
type hitMem struct{ latency ticks.T }

func (m hitMem) Access(line uint64, write bool, pc uint64, now ticks.T, done func(at ticks.T)) bool {
	if done != nil {
		done(now + m.latency)
	}
	return true
}

// One core cycle over a catalog workload's synthetic stream.
func benchCoreTick(b *testing.B) {
	stream, err := trace.NewWorkloadStream("433.milc")
	if err != nil {
		b.Fatal(err)
	}
	core, err := cpu.New(0, cpu.DefaultConfig(), stream, hitMem{latency: sim.DefaultSystemConfig(1024).L1DLatency}, 0, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	now := ticks.T(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Tick(now)
		now += cpu.CyclePeriod
	}
}

func benchSynthNext(b *testing.B) {
	s, err := trace.NewWorkloadStream("433.milc")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRecord, _ = s.Next()
	}
}

// instantFetcher completes every fetch at once, so a cache miss costs
// only the cache's own miss handling and fill.
type instantFetcher struct{}

func (instantFetcher) Fetch(line uint64, now ticks.T, done func(at ticks.T)) bool {
	done(now + 1)
	return true
}
func (instantFetcher) WriteBack(uint64, ticks.T) bool { return true }

// l1 builds the L1D of the paper's system over an instant fetcher.
func l1(b *testing.B) *cache.Cache {
	cfg := sim.DefaultSystemConfig(1024)
	c, err := cache.New(cache.Config{
		Name:    "L1D",
		Sets:    cache.SetsFor(cfg.L1DSizeKB*cache.KB, cfg.L1DWays, cfg.DRAM.Org.LineBytes),
		Ways:    cfg.L1DWays,
		Latency: cfg.L1DLatency,
		Repl:    cache.LRU,
		MSHRs:   16,
	}, instantFetcher{})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func noDone(ticks.T) {}

func benchCacheHit(b *testing.B) {
	c := l1(b)
	for line := uint64(0); line < 64; line++ {
		c.Access(line, false, 0x400000, 0, noDone)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)&63, false, 0x400000, ticks.T(i), noDone)
	}
}

func benchCacheMiss(b *testing.B) {
	c := l1(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Every line is new: each access misses, fetches and evicts.
		c.Access(uint64(i), false, 0x400000, ticks.T(i), noDone)
	}
}

var (
	windowOnce sync.Once
	window     ticks.T
	windowErr  error
)

// tbWindow is TPRAC's TB-Window at NRH 1024, solved once.
func tbWindow(b *testing.B) ticks.T {
	windowOnce.Do(func() {
		window, windowErr = analysis.ParamsFromDRAM(dram.DefaultConfig(1024)).SolveWindow(1024, true, 0)
	})
	if windowErr != nil {
		b.Fatal(windowErr)
	}
	return window
}

// One read through a real controller and DRAM module under TPRAC:
// Enqueue, then Tick until the data returns. Addresses follow a fixed
// pseudo-random sequence, so row hits, misses, refreshes and TB-RFMs
// all occur.
func benchControllerRequest(b *testing.B) {
	dcfg := dram.DefaultConfig(1024)
	mod, err := dram.New(dcfg)
	if err != nil {
		b.Fatal(err)
	}
	mapper, err := memctrl.NewMOPMapper(dcfg.Org, 4, false)
	if err != nil {
		b.Fatal(err)
	}
	policy, err := mitigation.NewTPRAC(tbWindow(b), false)
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := memctrl.New(memctrl.DefaultConfig(), mod, mapper, policy)
	if err != nil {
		b.Fatal(err)
	}
	var done bool
	complete := func(ticks.T) { done = true }
	lines := mapper.Lines()
	now := ticks.T(0)
	x := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		done = false
		for !ctrl.Enqueue(&memctrl.Request{Line: (x >> 17) % lines, OnComplete: complete}, now) {
			ctrl.Tick(now)
			now += memctrl.CyclePeriod
		}
		for start := now; !done; now += memctrl.CyclePeriod {
			if now-start > ticks.FromMS(1) {
				b.Fatalf("request %d did not complete within 1ms", i)
			}
			ctrl.Tick(now)
		}
	}
}

// One ACT/RD/PRE triple on a DRAM module: CanIssue then Issue for each
// command, rotating banks and rows so no row nears the Back-Off
// threshold. Time jumps past every timing constraint before each
// command, so the cost is the checks and state updates, not polling.
func benchDRAMIssue(b *testing.B) {
	mod, err := dram.New(dram.DefaultConfig(1024))
	if err != nil {
		b.Fatal(err)
	}
	org := mod.Config().Org
	banks := org.Banks()
	now := ticks.T(0)
	issue := func(c dram.Cmd) {
		now += ticks.FromNS(100)
		for !mod.CanIssue(c, now) {
			now++
		}
		sinkTicks = mod.Issue(c, now).DataAt
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank, row := i%banks, (i/banks)%org.Rows
		issue(dram.Cmd{Kind: dram.CmdACT, Bank: bank, Row: row})
		issue(dram.Cmd{Kind: dram.CmdRD, Bank: bank})
		issue(dram.Cmd{Kind: dram.CmdPRE, Bank: bank})
	}
}

// One controller cycle's policy queries: TPRAC's and ACB's Due and
// NextDue, with one bank activation fed to ACB.
func benchPolicyDue(b *testing.B) {
	tprac, err := mitigation.NewTPRAC(tbWindow(b), false)
	if err != nil {
		b.Fatal(err)
	}
	banks := dram.DDR5Org32Gb().Banks()
	acb, err := mitigation.NewACB(banks, 64)
	if err != nil {
		b.Fatal(err)
	}
	now := ticks.T(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += memctrl.CyclePeriod
		acb.OnActivate(i%banks, now)
		sinkInt += tprac.Due(now) + acb.Due(now)
		sinkTicks = tprac.NextDue(now) + acb.NextDue(now)
	}
}

// The exact per-cell solve exp.configure runs for every TPRAC and ACB
// grid cell.
func benchSolveWindow(b *testing.B) {
	p := analysis.ParamsFromDRAM(dram.DefaultConfig(1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := p.SolveWindow(1024, true, 0)
		if err != nil {
			b.Fatal(err)
		}
		sinkTicks = w
	}
}

// One latency sample of a Prober alternating two rows of one bank on an
// ABO-Only environment, so activations accumulate to Alerts and RFMs.
func benchProbeSample(b *testing.B) {
	env, err := attack.NewEnv(dram.DefaultConfig(1024), memctrl.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	p, err := attack.NewProber(env, 0, []int{1, 2}, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	p.Start()
	for len(p.Samples) < b.N {
		env.Run(env.Eng.Now() + ticks.FromUS(1))
	}
	p.Stop()
}

var (
	payloadOnce sync.Once
	payload     []byte
	payloadRes  sim.RunResult
	payloadErr  error
)

// runPayload is a real simulation result and its stored encoding: one
// short Baseline run of 433.milc.
func runPayload(b *testing.B) ([]byte, sim.RunResult) {
	payloadOnce.Do(func() {
		cfg := sim.DefaultSystemConfig(1024)
		cfg.Workload = "433.milc"
		sys, err := sim.NewSystem(cfg)
		if err != nil {
			payloadErr = err
			return
		}
		if payloadRes, payloadErr = sys.Run(1_000, 2_000); payloadErr != nil {
			return
		}
		payload, payloadErr = sim.EncodeResult(payloadRes)
	})
	if payloadErr != nil {
		b.Fatal(payloadErr)
	}
	return payload, payloadRes
}

// tempDir is a fresh directory for one benchmark invocation.
func tempDir(b *testing.B) string {
	dir, err := os.MkdirTemp("", "pracbench-layers-")
	if err != nil {
		b.Fatal(err)
	}
	return dir
}

// Puts of distinct keys through the store front over a disk directory.
func benchStorePut(b *testing.B) {
	data, _ := runPayload(b)
	dir := tempDir(b)
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put(fmt.Sprintf("pracbench/put/%d", i), data); err != nil {
			b.Fatal(err)
		}
	}
}

// Warm hits through the store front, which checks every entry it reads.
func benchStoreGet(b *testing.B) {
	data, _ := runPayload(b)
	dir := tempDir(b)
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	const key = "pracbench/get"
	if err := st.Put(key, data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, ok := st.Get(key)
		if !ok {
			b.Fatal("store miss on a warm key")
		}
		sinkBytes = got
	}
}

func benchEncodeResult(b *testing.B) {
	_, res := runPayload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := sim.EncodeResult(res)
		if err != nil {
			b.Fatal(err)
		}
		sinkBytes = data
	}
}

func benchDecodeResult(b *testing.B) {
	data, _ := runPayload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.DecodeResult(data)
		if err != nil {
			b.Fatal(err)
		}
		sinkResult = res
	}
}

func openJournal(b *testing.B, dir string) *journal.Journal {
	jl, _, err := journal.Open(filepath.Join(dir, "bench.journal"), journal.Options{
		Schema:      sim.SchemaVersion,
		Fingerprint: journal.Fingerprint("pracbench"),
	})
	if err != nil {
		b.Fatal(err)
	}
	return jl
}

// Run records appended with the journal's default fsync batching.
func benchJournalAppend(b *testing.B) {
	data, _ := runPayload(b)
	dir := tempDir(b)
	defer os.RemoveAll(dir)
	jl := openJournal(b, dir)
	defer jl.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := jl.AppendRun(fmt.Sprintf("pracbench/run/%d", i), data); err != nil {
			b.Fatal(err)
		}
	}
}

// One appended record made durable: AppendRun then Sync.
func benchJournalSync(b *testing.B) {
	data, _ := runPayload(b)
	dir := tempDir(b)
	defer os.RemoveAll(dir)
	jl := openJournal(b, dir)
	defer jl.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := jl.AppendRun(fmt.Sprintf("pracbench/sync/%d", i), data); err != nil {
			b.Fatal(err)
		}
		if err := jl.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}
