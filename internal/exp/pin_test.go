package exp

import (
	"runtime"
	"testing"
	"weak"

	"pracsim/internal/trace"
)

// TestRunnerPinsStreamMemos checks the shared instruction streams'
// lifetime: a runner keeps the memo of every workload it executed past
// the end of the runs that replayed it, and once the runner is dropped
// a collection empties the process's memo table.
func TestRunnerPinsStreamMemos(t *testing.T) {
	r := newRunner(Scale{Warmup: 1_000, Measured: 2_000, Workloads: []string{"433.milc", "444.namd"}, Serial: true})
	for _, w := range []string{"433.milc", "444.namd"} {
		if _, err := r.baseline(w); err != nil {
			t.Fatal(err)
		}
	}
	pinned := weak.Make(r.memos["444.namd"])
	runtime.GC()
	runtime.GC()
	if pinned.Value() == nil {
		t.Fatal("a collection between two runs discarded a pinned memo")
	}
	if m, err := trace.WorkloadMemo("444.namd"); err != nil || m != pinned.Value() {
		t.Fatalf("a later run gets another memo (err %v)", err)
	}
	runtime.KeepAlive(r) // the session is in use until here
	for i := 0; trace.LiveMemos() > 0; i++ {
		if i == 100 {
			t.Fatalf("%d memos outlive every runner", trace.LiveMemos())
		}
		// Cleanups run on their own goroutine after the collection that
		// finds a memo unreachable.
		runtime.GC()
		runtime.Gosched()
	}
}
