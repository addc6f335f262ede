package fault

import "testing"

// BenchmarkFaultFireDisabled pins the disabled fast path: one atomic pointer
// load and a nil check. The warm-sweep hot loop crosses failpoints
// millions of times; this must stay free.
func BenchmarkFaultFireDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Fire(StoreDiskGet) != nil {
			b.Fatal("fired with no plan")
		}
	}
}

// BenchmarkFaultFireEnabledMiss measures an enabled plan whose rules target a
// different point — the cost paid at every non-faulted site during a
// chaos run.
func BenchmarkFaultFireEnabledMiss(b *testing.B) {
	p, err := Parse("shard.read:err@0.5")
	if err != nil {
		b.Fatal(err)
	}
	Enable(p)
	defer Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Fire(StoreDiskGet)
	}
}

// TestDisabledOverheadGuard is the CI guard for the zero-overhead
// acceptance criterion: with no plan enabled, a Fire must cost no more
// than a handful of nanoseconds and zero allocations. The bound is
// generous (50ns covers slow shared runners); a regression to map
// lookups or locking on the fast path lands two orders of magnitude
// above it.
func TestDisabledOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the ns/op budget; CI runs this guard in a non-race step")
	}
	Disable()
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if Fire(StoreDiskGet) != nil {
				b.Fatal("fired with no plan")
			}
		}
	})
	if ns := res.NsPerOp(); ns > 50 {
		t.Fatalf("disabled Fire costs %dns/op, want <=50ns", ns)
	}
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("disabled Fire allocates %d/op, want 0", allocs)
	}
}
