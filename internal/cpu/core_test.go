package cpu

import (
	"testing"

	"pracsim/internal/ticks"
	"pracsim/internal/trace"
)

// fakeMem completes loads after a fixed latency, optionally refusing the
// first few accesses.
type fakeMem struct {
	latency ticks.T
	refuse  int
	loads   int
	stores  int
}

func (m *fakeMem) Access(line uint64, write bool, pc uint64, now ticks.T, done func(ticks.T)) bool {
	if m.refuse > 0 {
		m.refuse--
		return false
	}
	if write {
		m.stores++
		return true
	}
	m.loads++
	if done != nil {
		done(now + m.latency)
	}
	return true
}

func run(t *testing.T, c *Core, cycles int) {
	t.Helper()
	for i := 0; i < cycles; i++ {
		c.Tick(ticks.T(i))
	}
}

func nonMem(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{PC: uint64(0x400000 + i*4)}
	}
	return recs
}

func newCore(t *testing.T, cfg Config, recs []trace.Record, mem MemPort) *Core {
	t.Helper()
	c, err := New(0, cfg, trace.NewSliceStream(recs), mem, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNonMemIPCBoundedByRetireWidth(t *testing.T) {
	cfg := Config{IssueWidth: 6, RetireWidth: 4, ROBSize: 64}
	c := newCore(t, cfg, nonMem(4000), &fakeMem{})
	run(t, c, 1000)
	ipc := c.Stats().IPC()
	if ipc < 3.5 || ipc > 4.0 {
		t.Fatalf("IPC = %.2f, want close to retire width 4", ipc)
	}
}

func TestLoadLatencyThrottlesIPC(t *testing.T) {
	cfg := Config{IssueWidth: 4, RetireWidth: 4, ROBSize: 8}
	recs := make([]trace.Record, 2000)
	for i := range recs {
		recs[i] = trace.Record{PC: 0x400000, IsMem: true, Line: uint64(i)}
	}
	slow := newCore(t, cfg, recs, &fakeMem{latency: 400})
	run(t, slow, 4000)
	fastCore := newCore(t, cfg, recs, &fakeMem{latency: 4})
	run(t, fastCore, 4000)
	if slow.Stats().Instructions >= fastCore.Stats().Instructions {
		t.Fatalf("slow memory retired %d, fast %d; latency must throttle",
			slow.Stats().Instructions, fastCore.Stats().Instructions)
	}
	// With an 8-entry ROB and 400-cycle loads, throughput is bounded by
	// ROB/latency = 0.02 IPC.
	if ipc := slow.Stats().IPC(); ipc > 0.05 {
		t.Fatalf("slow IPC = %.3f, want ROB-bound (about 0.02)", ipc)
	}
}

func TestStoresArePosted(t *testing.T) {
	cfg := Config{IssueWidth: 4, RetireWidth: 4, ROBSize: 16}
	recs := make([]trace.Record, 1000)
	for i := range recs {
		recs[i] = trace.Record{PC: 0x400000, IsMem: true, Write: true, Line: uint64(i)}
	}
	mem := &fakeMem{latency: 10000} // latency irrelevant to stores
	c := newCore(t, cfg, recs, mem)
	for i := 0; i < 600 && !c.Done(); i++ {
		c.Tick(ticks.T(i))
	}
	if ipc := c.Stats().IPC(); ipc < 3 {
		t.Fatalf("store-only IPC = %.2f; stores must not block retirement", ipc)
	}
	if mem.stores == 0 {
		t.Fatal("no stores reached memory")
	}
}

func TestRefusedAccessRetries(t *testing.T) {
	cfg := Config{IssueWidth: 1, RetireWidth: 1, ROBSize: 4}
	recs := []trace.Record{{PC: 1, IsMem: true, Line: 42}}
	mem := &fakeMem{latency: 2, refuse: 3}
	c := newCore(t, cfg, recs, mem)
	run(t, c, 20)
	if mem.loads != 1 {
		t.Fatalf("loads reaching memory = %d, want 1 (after retries)", mem.loads)
	}
	if got := c.Stats().Instructions; got != 1 {
		t.Fatalf("retired = %d, want 1", got)
	}
}

func TestDoneAfterDrain(t *testing.T) {
	cfg := Config{IssueWidth: 2, RetireWidth: 2, ROBSize: 8}
	c := newCore(t, cfg, nonMem(10), &fakeMem{})
	if c.Done() {
		t.Fatal("Done before any work")
	}
	run(t, c, 100)
	if !c.Done() {
		t.Fatal("not Done after stream drained")
	}
	if got := c.Stats().Instructions; got != 10 {
		t.Fatalf("retired = %d, want 10", got)
	}
}

func TestROBLimitsOutstanding(t *testing.T) {
	cfg := Config{IssueWidth: 8, RetireWidth: 8, ROBSize: 4}
	recs := make([]trace.Record, 100)
	for i := range recs {
		recs[i] = trace.Record{PC: 1, IsMem: true, Line: uint64(i)}
	}
	var outstanding, maxOutstanding int
	mem := &manualMem{onAccess: func(done func(ticks.T)) {
		outstanding++
		if outstanding > maxOutstanding {
			maxOutstanding = outstanding
		}
	}}
	c := newCore(t, cfg, recs, mem)
	for i := 0; i < 50; i++ {
		c.Tick(ticks.T(i))
	}
	if maxOutstanding > 4 {
		t.Fatalf("outstanding loads = %d, exceeds ROB size 4", maxOutstanding)
	}
}

type manualMem struct {
	onAccess func(done func(ticks.T))
}

func (m *manualMem) Access(line uint64, write bool, pc uint64, now ticks.T, done func(ticks.T)) bool {
	m.onAccess(done) // never completes: loads pile up
	return true
}

func TestAddressRelocation(t *testing.T) {
	cfg := Config{IssueWidth: 1, RetireWidth: 1, ROBSize: 4}
	recs := []trace.Record{{PC: 1, IsMem: true, Line: 5}}
	var seen uint64
	mem := &recordingMem{onLine: func(l uint64) { seen = l }}
	c, err := New(3, cfg, trace.NewSliceStream(recs), mem, 1000, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	run(t, c, 10)
	if seen != 1005 {
		t.Fatalf("relocated line = %d, want 1005", seen)
	}
}

type recordingMem struct{ onLine func(uint64) }

func (m *recordingMem) Access(line uint64, write bool, pc uint64, now ticks.T, done func(ticks.T)) bool {
	m.onLine(line)
	if done != nil {
		done(now + 1)
	}
	return true
}

func TestResetStats(t *testing.T) {
	cfg := DefaultConfig()
	c := newCore(t, cfg, nonMem(100), &fakeMem{})
	run(t, c, 10)
	if c.Stats().Instructions == 0 {
		t.Fatal("no progress before reset")
	}
	c.ResetStats()
	if s := c.Stats(); s.Instructions != 0 || s.Cycles != 0 {
		t.Fatalf("stats after reset = %+v, want zero", s)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, Config{}, trace.NewSliceStream(nil), &fakeMem{}, 0, 1); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := New(0, DefaultConfig(), nil, &fakeMem{}, 0, 1); err == nil {
		t.Error("nil stream accepted")
	}
	if _, err := New(0, DefaultConfig(), trace.NewSliceStream(nil), nil, 0, 1); err == nil {
		t.Error("nil memory accepted")
	}
	if _, err := New(0, DefaultConfig(), trace.NewSliceStream(nil), &fakeMem{}, 0, 0); err == nil {
		t.Error("empty address space accepted")
	}
}

// syncPort completes loads at once and refuses every seventh access, so
// a guarded Tick also exercises the stalled-record retry path.
type syncPort struct{ n int }

func (p *syncPort) Access(line uint64, write bool, pc uint64, now ticks.T, done func(ticks.T)) bool {
	p.n++
	if p.n%7 == 0 {
		return false
	}
	if done != nil {
		done(now + 5)
	}
	return true
}

// TestTickAllocFree is the allocation guard for the core: ticking over a
// synchronous memory port — fetching records, dispatching loads through
// the slot-bound completion funcs, retrying refused accesses — allocates
// nothing.
func TestTickAllocFree(t *testing.T) {
	stream, err := trace.NewWorkloadStream("433.milc")
	if err != nil {
		t.Fatal(err)
	}
	port := &syncPort{}
	c, err := New(0, DefaultConfig(), stream, port, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	now := ticks.T(0)
	allocs := testing.AllocsPerRun(5000, func() {
		c.Tick(now)
		now += CyclePeriod
	})
	if allocs != 0 {
		t.Errorf("Core.Tick allocates %.2f objects per cycle, want 0", allocs)
	}
	if s := c.Stats(); s.Loads == 0 || s.Instructions == 0 || port.n < 7 {
		t.Fatalf("guard did not exercise loads and retries: %+v", s)
	}
}

// accessLog records every access a core makes, refusing every fifth so
// stalled records and retries interleave with runs of non-memory records.
type accessLog struct {
	n   int
	log []uint64
}

func (p *accessLog) Access(line uint64, write bool, pc uint64, now ticks.T, done func(ticks.T)) bool {
	p.n++
	if p.n%5 == 0 {
		return false
	}
	w := uint64(0)
	if write {
		w = 1
	}
	p.log = append(p.log, uint64(now)<<1|w, line, pc)
	if done != nil {
		done(now + ticks.T(p.n%40))
	}
	return true
}

// TestRunSkipMatchesNext checks that a core over a shared replay, which
// takes runs of non-memory records by count, behaves exactly like a core
// pulling the same records one at a time: the same accesses at the same
// times, and the same counters after every cycle.
func TestRunSkipMatchesNext(t *testing.T) {
	for _, name := range []string{"433.milc", "444.namd"} {
		memo, err := trace.WorkloadMemo(name)
		if err != nil {
			t.Fatal(err)
		}
		synth, err := trace.NewWorkloadStream(name)
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]trace.Record, 60_000)
		for i := range recs {
			recs[i], _ = synth.Next()
		}
		var slicePort, replayPort accessLog
		byRecord := newCore(t, DefaultConfig(), recs, &slicePort)
		byRun, err := New(0, DefaultConfig(), memo.Replay(), &replayPort, 0, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		for now := ticks.T(0); byRecord.Stats().Instructions < 50_000; now += CyclePeriod {
			byRecord.Tick(now)
			byRun.Tick(now)
			if a, b := byRecord.Stats(), byRun.Stats(); a != b {
				t.Fatalf("%s at %d: stats %+v by record, %+v by run", name, now, a, b)
			}
		}
		if len(slicePort.log) != len(replayPort.log) {
			t.Fatalf("%s: %d accesses by record, %d by run", name, len(slicePort.log)/3, len(replayPort.log)/3)
		}
		for i := range slicePort.log {
			if slicePort.log[i] != replayPort.log[i] {
				t.Fatalf("%s: access %d differs", name, i/3)
			}
		}
	}
}

// TestTickAllocFreeReplay is TestTickAllocFree over a shared replay
// whose records are already generated, the stream a System's cores read.
func TestTickAllocFreeReplay(t *testing.T) {
	memo, err := trace.WorkloadMemo("433.milc")
	if err != nil {
		t.Fatal(err)
	}
	warm := memo.Replay()
	for i := 0; i < 100_000; i++ {
		warm.Next()
	}
	port := &syncPort{}
	c, err := New(0, DefaultConfig(), memo.Replay(), port, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	now := ticks.T(0)
	allocs := testing.AllocsPerRun(5000, func() {
		c.Tick(now)
		now += CyclePeriod
	})
	if allocs != 0 {
		t.Errorf("Core.Tick allocates %.2f objects per cycle, want 0", allocs)
	}
	if s := c.Stats(); s.Loads == 0 || s.Instructions == 0 || port.n < 7 {
		t.Fatalf("guard did not exercise loads and retries: %+v", s)
	}
}
