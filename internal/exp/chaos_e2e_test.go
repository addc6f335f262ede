package exp

import (
	"reflect"
	"testing"

	"pracsim/internal/exp/store"
	"pracsim/internal/fault"
)

// enableFaults parses and activates a fault schedule for one test.
func enableFaults(t *testing.T, spec string) {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(p)
	t.Cleanup(fault.Disable)
}

// diskStorm faults every disk-store operation a session performs:
// failed and bit-flipped reads, entries evicted under the reader, and
// writes that hit a full or short-writing disk.
const diskStorm = "seed=7;" +
	"store.disk.evict:evict@0.3;store.disk.get:err@0.2;store.disk.get:corrupt@0.3;" +
	"store.disk.put:enospc@0.3;store.disk.put:short@0.3"

// TestChaosFaultyDiskStoreBitIdentical is the storm half of the chaos
// contract: a session over a warm disk store whose reads fail, return
// corrupt entries or lose entries to eviction, and whose writes hit a
// full disk, must neither crash nor change a single output byte. Every
// injected failure degrades to a recompute; the figures stay identical
// to a session that never had a store, and each kind of damage shows in
// the store's counters.
func TestChaosFaultyDiskStoreBitIdentical(t *testing.T) {
	// Three workloads give the storm 18 runs to land on; serial
	// execution keeps the fault draws, and so the counters, reproducible.
	serial := storeScale()
	serial.Workloads = []string{"433.milc", "444.namd", "470.lbm"}
	serial.Serial = true
	want, err := NewRunner(serial).Fig12()
	if err != nil {
		t.Fatal(err)
	}

	// Warm the store cleanly so the storm has real entries to damage.
	dir := t.TempDir()
	warmStore, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunnerWith(serial, SessionOptions{Store: warmStore}).Fig12(); err != nil {
		t.Fatal(err)
	}

	// The budget is far above the grid's footprint: it only turns on
	// the eviction counters the injected evictions feed.
	enableFaults(t, diskStorm)
	disk, err := store.OpenDiskWith(dir, store.DiskOptions{BudgetBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	front := store.NewStore(disk)
	front.Warn = func(string) {}
	got, err := NewRunnerWith(serial, SessionOptions{Store: front}).Fig12()
	if err != nil {
		t.Fatalf("session under fault storm failed: %v", err)
	}
	if fault.Fired() == 0 {
		t.Fatal("fault storm never fired; the test proved nothing")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fault storm changed results:\n got %+v\nwant %+v", got, want)
	}
	if got.Render() != want.Render() || got.CSV() != want.CSV() {
		t.Error("fault-storm render/CSV not byte-identical to store-less run")
	}
	// The storm must be visible in the counters, not silently absorbed.
	st := front.Stats()
	if st.Quarantined == 0 || st.WritesDropped == 0 || st.Eviction.Evicted == 0 {
		t.Errorf("injected disk failures left no trace in stats: quarantined %d, writes dropped %d, evicted %d",
			st.Quarantined, st.WritesDropped, st.Eviction.Evicted)
	}
}

// TestChaosSameSeedSameFaultLog pins determinism: two serial sessions
// under the same schedule, seed and store state draw the identical fault
// sequence — the replay property debugging a chaos failure depends on —
// and both still render byte-identical figures.
func TestChaosSameSeedSameFaultLog(t *testing.T) {
	serial := storeScale()
	serial.Serial = true
	reference := NewRunner(serial)
	want, err := reference.Fig12()
	if err != nil {
		t.Fatal(err)
	}

	const spec = "seed=11;store.disk.get:corrupt@0.4"
	run := func() ([]string, string) {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		warm := NewRunnerWith(serial, SessionOptions{Store: st})
		if _, err := warm.Fig12(); err != nil {
			t.Fatal(err)
		}

		enableFaults(t, spec)
		st2, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sess := NewRunnerWith(serial, SessionOptions{Store: st2})
		got, err := sess.Fig12()
		if err != nil {
			t.Fatalf("serial session under faults failed: %v", err)
		}
		log := fault.Log()
		fault.Disable()
		return log, got.Render() + got.CSV()
	}

	logA, outA := run()
	logB, outB := run()
	if len(logA) == 0 {
		t.Fatal("schedule never fired; the determinism check proved nothing")
	}
	if !reflect.DeepEqual(logA, logB) {
		t.Errorf("same seed drew different fault logs:\n A: %q\n B: %q", logA, logB)
	}
	if outA != outB || outA != want.Render()+want.CSV() {
		t.Error("corrupt-store sessions not byte-identical to the reference")
	}
}
