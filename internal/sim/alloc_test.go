package sim

import (
	"runtime"
	"testing"

	"pracsim/internal/ticks"
)

// TestSystemStepAllocFree is the allocation guard for the whole access
// path: once a 4-core 433.milc System is past warm-up, every engine step
// — core ticks, L1/L2/LLC lookups, misses and fills, controller
// admission, scheduling and TB-RFMs — runs without heap allocations. The
// only allocations left are Run's own per-phase setup (tickers, wakers,
// the result), amortized over thousands of steps.
func TestSystemStepAllocFree(t *testing.T) {
	cfg := DefaultSystemConfig(1024)
	cfg.Workload = "433.milc"
	cfg.Policy = PolicyTPRAC
	cfg.TBWindow = ticks.FromNS(5850) // the solved window at NRH 1024
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(20_000, 5_000); err != nil {
		t.Fatal(err)
	}
	var calls, steps, reads int64
	allocs := testing.AllocsPerRun(3, func() {
		res, err := sys.Run(0, 5_000)
		if err != nil {
			t.Fatal(err)
		}
		calls++
		steps += res.Telemetry.EngineSteps
		reads += res.Ctrl.Reads
	})
	perStep := allocs / (float64(steps) / float64(calls))
	t.Logf("%.0f allocs per Run over %d engine steps: %.5f per step", allocs, steps/calls, perStep)
	if perStep > 0.01 {
		t.Errorf("System allocates %.4f objects per engine step (%.0f per Run over %d steps), want <= 0.01",
			perStep, allocs, steps/calls)
	}
	if reads == 0 {
		t.Fatal("guard did not reach the memory controller")
	}
}

// TestNewSystemFootprint bounds what building the paper's 4-core system
// allocates. Most of it is cache way state: one key word per way, a
// dirty byte and the policy's byte (SRRIP) or word (LRU), about 1.9 MB
// over the 8 MB LLC and four 512 KB L2s and 48 KB L1Ds.
func TestNewSystemFootprint(t *testing.T) {
	const limit = 2.5 * 1024 * 1024
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewSystem(DefaultSystemConfig(1024))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewSystem allocated %.2f MB", float64(got)/(1024*1024))
	if got > limit {
		t.Errorf("NewSystem allocated %.2f MB, want <= %.2f MB", float64(got)/(1024*1024), limit/(1024*1024))
	}
}
