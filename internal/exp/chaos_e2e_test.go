package exp

import (
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

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

// TestChaosFaultySharedStoreBitIdentical is the storm half of the chaos
// contract: a session reading through a misbehaving store server — truncated
// and corrupted frames, injected 500s, client-side transport errors and
// timeouts — must neither crash nor change a single output byte. Every
// injected failure degrades to a recompute; the figures stay identical
// to a session that never had a store.
func TestChaosFaultySharedStoreBitIdentical(t *testing.T) {
	reference := NewRunner(storeScale())
	want, err := reference.Fig12()
	if err != nil {
		t.Fatal(err)
	}

	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(store.NewFrameHandler(disk))
	defer ts.Close()

	// Warm the server cleanly so the storm has real frames to mangle.
	warmBackend, err := store.OpenHTTP(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewRunnerWith(storeScale(), SessionOptions{Store: store.NewStore(warmBackend)})
	if _, err := warm.Fig12(); err != nil {
		t.Fatal(err)
	}

	enableFaults(t, "seed=7;"+
		"server.get:trunc@0.3;server.get:corrupt@0.25;server.get:err@0.15;"+
		"store.http.get:err@0.2;store.http.get:timeout@0.1;store.http.put:err@0.3")
	backend, err := store.OpenHTTPWith(ts.URL, store.HTTPOptions{
		Timeout:   2 * time.Second,
		RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := store.NewStore(backend)
	chaos := NewRunnerWith(storeScale(), SessionOptions{Store: front})
	got, err := chaos.Fig12()
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
	rs := front.Stats().Remote
	if rs.Errors == 0 {
		t.Errorf("injected remote failures left no trace in stats: %+v", rs)
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
