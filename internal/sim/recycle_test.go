package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

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
// machine takes the run's cache way state and allocates at most 0.25 MB,
// against about 1.25 MB without it (TestNewSystemFootprint). A run that
// fails recycles its System as well.
func TestRecycledSystemFootprint(t *testing.T) {
	const limit = 0.25 * 1024 * 1024
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
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("NewSystem %s allocated %.3f MB", run.name, float64(got)/(1024*1024))
		if got > limit {
			t.Errorf("NewSystem %s allocated %.3f MB, want <= %.2f MB", run.name, float64(got)/(1024*1024), limit/(1024*1024))
		}
	}
}
