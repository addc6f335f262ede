package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"pracsim/internal/spare"
	"pracsim/internal/ticks"
)

// recycleCells is a grid of Systems whose cache and bank shapes change
// from one cell to the next: 1 and 4 cores, the prefetcher on and off,
// ABO-Only, TPRAC and TPRAC-pb at NBO 1024, two LLC sizes and two rank
// counts. The cache sizes are ones no other test in this package builds,
// so a level of these shapes can only inherit way state recycled here.
func recycleCells() []SystemConfig {
	var cells []SystemConfig
	workloads := []string{"433.milc", "470.lbm", "429.mcf"}
	for _, cores := range []int{1, 4} {
		for _, prefetch := range []bool{true, false} {
			for _, policy := range []PolicyKind{PolicyABOOnly, PolicyTPRAC, PolicyTPRACpb} {
				i := len(cells)
				cfg := DefaultSystemConfig(1024)
				cfg.Cores = cores
				cfg.Prefetch = prefetch
				cfg.Policy = policy
				cfg.TBWindow = ticks.FromNS(5850) // the solved window at NRH 1024
				cfg.L1DSizeKB, cfg.L1DWays, cfg.L2SizeKB = 32, 8, 256
				cfg.LLCSizeKB = 512 << (2 * (i % 2)) // 512 KB or 2 MB
				cfg.DRAM.Org.Ranks = 2 << (i / 2 % 2)
				cfg.Workload = workloads[i%len(workloads)]
				cells = append(cells, cfg)
			}
		}
	}
	return cells
}

// encodeCell encodes a cell's result without the wall-clock telemetry,
// the only part that varies between runs.
func encodeCell(res RunResult) ([]byte, error) {
	res.Telemetry.WallNS, res.Telemetry.TicksPerSec = 0, 0
	return EncodeResult(res)
}

// cellBytes is encodeCell for a run that must have succeeded.
func cellBytes(t *testing.T, res RunResult, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	data, err := encodeCell(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecycledSystemMatchesFresh runs the cells of recycleCells back to
// back through Execute, forwards and then backwards, so every cell's
// caches and counter tables inherit the way state, dirty lines, stamps,
// RRPVs, in-flight chains and counts a previous cell left behind. Each
// result must encode to the same bytes as the cell's run on a System
// that is never recycled.
func TestRecycledSystemMatchesFresh(t *testing.T) {
	const warmup, measured = 2_000, 6_000
	cells := recycleCells()
	fresh := make([][]byte, len(cells))
	for i, cfg := range cells {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(warmup, measured)
		fresh[i] = cellBytes(t, res, err)
	}
	order := make([]int, 0, 2*len(cells))
	for i := range cells {
		order = append(order, i)
	}
	for i := range cells {
		order = append(order, len(cells)-1-i)
	}
	for step, i := range order {
		res, err := Execute(cells[i], warmup, measured)
		if got := cellBytes(t, res, err); !bytes.Equal(got, fresh[i]) {
			cfg := cells[i]
			t.Errorf("step %d, cell %d (%d cores, prefetch %v, %v, %d KB LLC, %d ranks, %s): recycled run differs from fresh: %s",
				step, i, cfg.Cores, cfg.Prefetch, cfg.Policy, cfg.LLCSizeKB, cfg.DRAM.Org.Ranks, cfg.Workload, diffEncoded(got, fresh[i]))
		}
	}
}

// TestExecuteConcurrently runs the 1-core cells of recycleCells through
// Execute on four goroutines at once, as an experiment's worker pool
// does, so levels and counter tables are recycled and taken concurrently
// (under -race, racing on the spare stacks fails the test). Every
// result must match the cell's serial run.
func TestExecuteConcurrently(t *testing.T) {
	const warmup, measured = 1_000, 3_000
	var cells []SystemConfig
	for _, cfg := range recycleCells() {
		if cfg.Cores == 1 {
			cells = append(cells, cfg)
		}
	}
	want := make([][]byte, len(cells))
	for i, cfg := range cells {
		res, err := Execute(cfg, warmup, measured)
		want[i] = cellBytes(t, res, err)
	}
	const workers = 4
	got := make([][][]byte, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cells {
				i := (k + w) % len(cells)
				res, err := Execute(cells[i], warmup, measured)
				var data []byte
				if err == nil {
					data, err = encodeCell(res)
				}
				if err != nil {
					errs[w] = err
					return
				}
				got[w] = append(got[w], data)
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for k, data := range got[w] {
			if i := (k + w) % len(cells); !bytes.Equal(data, want[i]) {
				t.Errorf("worker %d, cell %d: concurrent run differs from serial: %s", w, i, diffEncoded(data, want[i]))
			}
		}
	}
}

// diffEncoded describes how two encoded results differ.
func diffEncoded(got, want []byte) string {
	g, gerr := DecodeResult(got)
	w, werr := DecodeResult(want)
	if gerr != nil || werr != nil {
		return fmt.Sprintf("decode: %v, %v", gerr, werr)
	}
	if d := DiffResults(g, w); d != "" {
		return d
	}
	return fmt.Sprintf("telemetry %+v != %+v", g.Telemetry, w.Telemetry)
}

// TestRecycledSystemFootprint pins what recycling saves: a NewSystem of
// the paper's 4-core machine that follows a recycled run of the same
// machine takes the run's storage (cache way state and MSHR slabs,
// prefetcher tables, reorder buffers and their load closures, DRAM banks
// and queues, controller queues and tables) and allocates at most 32 KB
// in at most 200 objects, against about 1.25 MB without it
// (TestNewSystemFootprint). A run that fails recycles its System as
// well.
func TestRecycledSystemFootprint(t *testing.T) {
	const limit, mallocs = 32 * 1024, 200
	cfg := DefaultSystemConfig(1024)
	for _, run := range []struct {
		name     string
		measured int64
		fails    bool
	}{
		{"after a run", 1_000, false},
		{"after a failed run", 0, true}, // Run refuses a zero budget
	} {
		if _, err := Execute(cfg, 0, run.measured); (err != nil) != run.fails {
			t.Fatalf("%s: Execute error %v, want failure %v", run.name, err, run.fails)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sys, err := NewSystem(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		sys.recycle()
		got, n := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("NewSystem %s allocated %.1f KB in %d objects", run.name, float64(got)/1024, n)
		if got > limit || n > mallocs {
			t.Errorf("NewSystem %s allocated %.1f KB in %d objects, want <= %d KB in <= %d",
				run.name, float64(got)/1024, n, limit/1024, mallocs)
		}
	}
}

// shapeCell is a 2-core cell of a System shape no other test builds:
// its ROB, cache, MSHR, controller-queue and rank shapes are unique to
// tag, so the spare storage of that shape is what this test recycles.
func shapeCell(tag int, workload string) SystemConfig {
	cfg := DefaultSystemConfig(1024)
	cfg.Cores = 2
	cfg.Core.ROBSize = 90 + tag
	cfg.L1DSizeKB, cfg.L1DWays = 16, 4
	cfg.L2SizeKB, cfg.L2Ways = 128, 4
	cfg.LLCSizeKB, cfg.LLCWays = 1024, 8
	cfg.MSHRsPerCore = 24 + tag
	cfg.Ctrl.ReadQueueCap, cfg.Ctrl.WriteQueueCap = 40+tag, 40+tag
	cfg.DRAM.Org.Ranks = 1
	cfg.Policy = PolicyTPRAC
	cfg.TBWindow = ticks.FromNS(5850)
	cfg.Workload = workload
	return cfg
}

// spareDelta reports how many values each spare stack gained since
// before.
func spareDelta(before map[string]int) map[string]int {
	d := map[string]int{}
	for name, n := range spare.Held() {
		if n != before[name] {
			d[name] = n - before[name]
		}
	}
	return d
}

// TestRecycledMidRunMatchesFresh recycles a System that stopped with
// loads in flight, misses waiting in its MSHRs and reads queued in its
// controller, then runs the next cell on its storage: that cell's
// result must encode to the same bytes as its run on fresh storage, so
// no completion bound to the recycled storage reached the new System
// and no queued request survived.
func TestRecycledMidRunMatchesFresh(t *testing.T) {
	const warmup, measured = 1_000, 4_000
	next := shapeCell(1, "433.milc")
	sys, err := NewSystem(next)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(warmup, measured)
	want := cellBytes(t, res, err)

	dirty, err := NewSystem(shapeCell(1, "470.lbm"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dirty.Run(0, 3_000); err != nil {
		t.Fatal(err)
	}
	// Stop mid-flight: advance until the controller holds reads while
	// the L1s hold misses.
	for i := 0; ; i++ {
		reads, _ := dirty.Ctrl.QueueLen()
		if reads > 0 && dirty.L1s[0].InFlight()+dirty.L1s[1].InFlight() > 0 {
			break
		}
		if i == 10_000 {
			t.Fatal("the dirty System never had reads queued and L1 misses in flight at once")
		}
		dirty.Engine.Run(dirty.Engine.Now() + 1)
	}
	before := spare.Held()
	dirty.recycle()
	if d := spareDelta(before); d["cpu.rob"] != 2 || d["cache.level"] != 5 || d["memctrl"] != 1 || d["dram.banks"] != 1 {
		t.Fatalf("recycling the dirty System added %v to the spares", d)
	}
	res, err = Execute(next, warmup, measured)
	if got := cellBytes(t, res, err); !bytes.Equal(got, want) {
		t.Errorf("the cell after a mid-run recycle differs from its fresh run: %s", diffEncoded(got, want))
	}
}

// TestSparesHoldConcurrentPeak pins what the spare stacks keep: after K
// Systems that were live at once ran concurrently and were recycled, the
// stacks hold exactly K Systems' worth more of cores, levels,
// prefetchers, controllers and banks, and a serial grid over the same
// cells afterwards adds nothing, counter tables included. It logs the
// heap those K Systems leave retained.
func TestSparesHoldConcurrentPeak(t *testing.T) {
	const k, warmup, measured = 3, 1_000, 3_000
	workloads := []string{"433.milc", "470.lbm", "429.mcf"}
	cells := make([]SystemConfig, k)
	for i := range cells {
		cells[i] = shapeCell(2, workloads[i])
		// Extend the shared workload memos now, so the heap measured
		// below holds only what the spares keep.
		sys, err := NewSystem(cells[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(warmup, measured); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	systems := make([]*System, k)
	for i, cfg := range cells {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	before := spare.Held() // all K live: what they took is off the stacks
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sys.recycle()
			_, errs[i] = sys.Run(warmup, measured)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	systems = nil
	runtime.GC()
	runtime.ReadMemStats(&m1)
	peak := spareDelta(before)
	t.Logf("%d recycled Systems left %v spare values and %.0f KB of heap, %.0f KB per System",
		k, peak, float64(m1.HeapAlloc-m0.HeapAlloc)/1024, float64(m1.HeapAlloc-m0.HeapAlloc)/1024/k)
	cores := cells[0].Cores
	for name, want := range map[string]int{
		"cpu.rob":        k * cores,
		"cache.level":    k * (2*cores + 1),
		"cache.ipstride": k * cores,
		"memctrl":        k,
		"dram.banks":     k,
	} {
		if peak[name] != want {
			t.Errorf("after %d concurrent Systems the spares gained %d %s values, want %d", k, peak[name], name, want)
		}
	}
	after := spare.Held()
	for _, cfg := range cells {
		if _, err := Execute(cfg, warmup, measured); err != nil {
			t.Fatal(err)
		}
	}
	if d := spareDelta(after); len(d) != 0 {
		t.Errorf("a serial grid after %d concurrent Systems changed the spares by %v, want nothing", k, d)
	}
}
