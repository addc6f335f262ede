package cpu

import (
	"reflect"
	"testing"

	"pracsim/internal/spare"
	"pracsim/internal/ticks"
	"pracsim/internal/trace"
)

// mixed is a record stream of loads, stores and non-memory runs.
func mixed(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		r := &recs[i]
		r.PC = uint64(i%7) << 2
		switch i % 5 {
		case 1:
			r.IsMem, r.Line = true, uint64(i*3)
		case 3:
			r.IsMem, r.Write, r.Line = true, true, uint64(i)
		}
	}
	return recs
}

// snapshotCore is c's state with its storage pointer and load closures
// dropped (a closure is bound to its own ROB, so two ROBs' closures never
// compare equal) and its stream and port replaced by the given ones.
func snapshotCore(c *Core, stream trace.Stream, mem MemPort) Core {
	s := *c
	s.robs, s.loadDone = nil, nil
	s.stream, s.runs, s.mem = stream, nil, mem
	return s
}

// TestRecycledCoreMatchesFresh builds a core on the reorder buffer of a
// core recycled with loads in flight and its ring wrapped, checks that
// it equals a freshly allocated core field for field, and then runs
// both over the same stream and memory, comparing their counters after
// every cycle. The ROB size is one no other test builds.
func TestRecycledCoreMatchesFresh(t *testing.T) {
	cfg := Config{IssueWidth: 3, RetireWidth: 2, ROBSize: 13}
	oldMem := &pendingMem{}
	old := newCore(t, cfg, mixed(500), oldMem)
	for now := range ticks.T(40) {
		old.Tick(now)
		if len(oldMem.done) > 3 {
			oldMem.done[0](now + 2)
			oldMem.done = oldMem.done[1:]
		}
	}
	if old.head == 0 || old.count == 0 || len(oldMem.done) == 0 {
		t.Fatalf("dirty core left fresh state: head %d, %d in the ROB, %d loads in flight", old.head, old.count, len(oldMem.done))
	}
	rs := old.robs
	old.Recycle()

	recMem, freshMem := &fakeMem{latency: 9}, &fakeMem{latency: 9}
	recycled := newCore(t, cfg, mixed(500), recMem)
	if recycled.robs != rs {
		t.Fatal("New after Recycle allocated instead of taking the recycled reorder buffer")
	}
	fresh := newCore(t, cfg, mixed(500), freshMem)
	if fresh.robs == rs {
		t.Fatal("two cores share one reorder buffer")
	}
	if g, w := snapshotCore(recycled, nil, nil), snapshotCore(fresh, nil, nil); !reflect.DeepEqual(g, w) {
		t.Fatalf("recycled core differs from a fresh one:\n got %+v\nwant %+v", g, w)
	}
	for now := range ticks.T(400) {
		recycled.Tick(now)
		fresh.Tick(now)
		if g, w := recycled.Stats(), fresh.Stats(); g != w {
			t.Fatalf("cycle %d: recycled core %+v, fresh %+v", now, g, w)
		}
	}
	if !fresh.Done() || !recycled.Done() {
		t.Fatal("the cores did not drain the stream")
	}
}

// TestRecycledCorePanics checks that a recycled-away core cannot be used
// by mistake: Tick, NextWork and a completion of a load it had in flight
// panic instead of touching a reorder buffer that may belong to another
// core, and a second Recycle does not hand the buffer out twice.
func TestRecycledCorePanics(t *testing.T) {
	cfg := Config{IssueWidth: 2, RetireWidth: 2, ROBSize: 11}
	mem := &pendingMem{}
	c := newCore(t, cfg, loads(20), mem)
	c.Tick(0)
	if len(mem.done) == 0 {
		t.Fatal("no load in flight")
	}
	before := spare.Held()["cpu.rob"]
	c.Recycle()
	c.Recycle()
	if n := spare.Held()["cpu.rob"] - before; n != 1 {
		t.Errorf("recycling one core twice added %d spare reorder buffers, want 1", n)
	}
	for name, use := range map[string]func(){
		"Tick":     func() { c.Tick(1) },
		"NextWork": func() { c.NextWork(1) },
		"loadDone": func() { mem.done[0](5) },
	} {
		if !panics(use) {
			t.Errorf("%s on a recycled core did not panic", name)
		}
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
