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
// allocates. Most of it is cache way state, about 0.96 MiB:
//   - the 8 MB SRRIP LLC's 131,072 ways: a 4 B key, 1 B dirty and 1 B
//     RRPV each, 0.75 MiB in all;
//   - each 512 KB 8-way L2 (8192 ways, 1024 sets) and 48 KB 12-way L1D
//     (768 ways, 64 sets): a 4 B key, 1 B dirty and 1 B LRU stamp per
//     way plus 1 B of clock per set, 49 KiB and 4.56 KiB, four of each.
func TestNewSystemFootprint(t *testing.T) {
	const limit = 1.5 * 1024 * 1024
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

// TestNewSystemRejectsWideTags checks that NewSystem refuses a memory
// whose line addresses would give some cache level a tag wider than its
// 32-bit way keys hold, and builds the default one.
func TestNewSystemRejectsWideTags(t *testing.T) {
	cfg := DefaultSystemConfig(1024)
	if _, err := NewSystem(cfg); err != nil {
		t.Fatalf("default system rejected: %v", err)
	}
	cfg.DRAM.Org.Rows = 1 << 30
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("NewSystem accepted 1<<30 rows per bank: its line addresses overflow every level's 31-bit tags")
	} else {
		t.Log(err)
	}
	// 1<<22 rows make 2^36 lines. The 64-set L1D tags 2^37 lines: enough
	// for demand accesses, but not for prefetches up to two strides past
	// them.
	cfg.DRAM.Org.Rows = 1 << 22
	if _, err := NewSystem(cfg); err == nil {
		t.Error("NewSystem accepted prefetches reaching 3 * 2^36 lines past a 64-set L1D's 2^37")
	}
	cfg.Prefetch = false
	if _, err := NewSystem(cfg); err != nil {
		t.Errorf("2^36 lines without a prefetcher rejected: %v", err)
	}
}
