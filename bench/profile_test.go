package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"pracsim/internal/analysis"
	"pracsim/internal/dram"
)

// TestParseProfileAttributesSpinner records a real CPU profile while
// spinning the window solver and checks that the decoder and the
// attribution give the analysis layer the largest share.
func TestParseProfileAttributesSpinner(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	p := analysis.ParamsFromDRAM(dram.DefaultConfig(1024))
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		if _, err := p.SolveWindow(1024, true, 0); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.samples) == 0 {
		t.Skip("profile recorded no samples")
	}
	shares := attribute(prof)
	var sum float64
	top := ""
	for b, s := range shares {
		sum += s
		if top == "" || s > shares[top] {
			top = b
		}
	}
	if top != "analysis" {
		t.Errorf("largest share went to %q (%.1f%%), want analysis (%.1f%%)", top, shares[top], shares["analysis"])
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("shares sum to %g, want 100", sum)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"memops go to the nearest non-runtime caller",
			[]string{"runtime.duffcopy", "pracsim/internal/memctrl.(*Controller).accrueMaintenance", "pracsim/internal/sim.(*ControllerClock).tick"},
			"memctrl"},
		{"memmove through a runtime helper",
			[]string{"runtime.memmove", "runtime.typedmemmove", "pracsim/internal/dram.(*Module).Config", "pracsim/internal/memctrl.New"},
			"dram"},
		{"map operations are the caller's",
			[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2_fast64", "pracsim/internal/memctrl.(*Controller).Enqueue"},
			"memctrl"},
		{"standard library passes through to its caller",
			[]string{"math/rand.(*Rand).Float64", "pracsim/internal/trace.(*Synth).Next", "pracsim/internal/cpu.(*Core).Tick"},
			"trace"},
		{"allocation is runtime.malloc even below repository code",
			[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "pracsim/internal/memctrl.(*Controller).Enqueue"},
			"runtime.malloc"},
		{"memclr inside the allocator is allocation",
			[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice", "pracsim/internal/cache.(*Cache).access"},
			"runtime.malloc"},
		{"background marking is gc",
			[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"},
			"runtime.gc"},
		{"an assist inside an allocation is gc, not malloc",
			[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc", "pracsim/internal/cache.New"},
			"runtime.gc"},
		{"a syscall is its caller's",
			[]string{"internal/runtime/syscall.Syscall6", "syscall.RawSyscall6", "syscall.Syscall", "syscall.Fsync", "internal/poll.(*FD).Fsync", "os.(*File).Sync", "pracsim/internal/exp/journal.(*Journal).Sync"},
			"journal"},
		{"HTTP plumbing outside any layer is io",
			[]string{"internal/runtime/syscall.Syscall6", "syscall.read", "internal/poll.(*FD).Read", "net.(*conn).Read", "net/http.(*connReader).Read", "bufio.(*Reader).fill", "net/http.(*conn).serve"},
			"io"},
		{"exp subpackages",
			[]string{"pracsim/internal/exp/pool.(*Cache[go.shape.struct { pracsim/internal/exp.v int }]).Do", "pracsim/internal/exp.(*runner).run"},
			"exp"},
		{"store", []string{"pracsim/internal/exp/store.(*Disk).Get"}, "store"},
		{"store server", []string{"pracsim/internal/exp/store/server.(*Server).ServeHTTP"}, "store"},
		{"journal", []string{"pracsim/internal/exp/journal.(*Journal).append"}, "journal"},
		{"service", []string{"pracsim/internal/exp/service.(*Queue).Lease"}, "service"},
		{"repository packages outside the layers are other", []string{"pracsim/internal/stats.Geomean"}, "other"},
		{"the scheduler is runtime.other",
			[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"},
			"runtime.other"},
		{"the profiler is other",
			[]string{"compress/flate.(*compressor).deflate", "runtime/pprof.(*profileBuilder).flush", "runtime/pprof.profileWriter"},
			"other"},
		{"the benchmark's own code is other", []string{"strings.Cut", "main.routeOf"}, "other"},
		{"empty stack", nil, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("%s: classify = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAttributeSplitsGCAndMalloc(t *testing.T) {
	p := &profile{
		sampleTypes: []string{"samples/count", "cpu/nanoseconds"},
		samples: []profSample{
			{stack: []string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, values: []int64{1, 30}},
			{stack: []string{"runtime.mallocgc", "pracsim/internal/cache.New"}, values: []int64{1, 20}},
			{stack: []string{"runtime.duffzero", "pracsim/internal/cache.New"}, values: []int64{1, 50}},
		},
	}
	got := attribute(p)
	want := map[string]float64{"runtime.gc": 30, "runtime.malloc": 20, "cache": 50}
	for _, b := range shareBuckets {
		if math.Abs(got[b]-want[b]) > 1e-9 {
			t.Errorf("%s = %g%%, want %g%%", b, got[b], want[b])
		}
	}
	if shareMetric("runtime.gc") != "runtime.gc_pct" || shareMetric("cache") != "cache.self_pct" {
		t.Error("share metric names drifted from the per-layer metric table")
	}
}

func TestParseProfileRejectsCorruptInput(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	pprof.StopCPUProfile()
	raw := buf.Bytes()
	if _, err := parseProfile(raw); err != nil {
		t.Fatalf("empty profile: %v", err)
	}
	for _, bad := range [][]byte{
		{0x0a, 0xff},             // length beyond the input
		{0x1f, 0x8b, 0x00},       // torn gzip header
		{0x08},                   // varint key with no value
		{0x0f},                   // unsupported wire type 7
		{0x12, 0x02, 0x08, 0x05}, // sample naming a location that does not exist
	} {
		if _, err := parseProfile(bad); err == nil {
			t.Errorf("parseProfile(% x) succeeded, want an error", bad)
		}
	}
}
