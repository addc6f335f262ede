package memctrl

import (
	"fmt"
	"reflect"
	"testing"

	"pracsim/internal/mitigation"
	"pracsim/internal/spare"
	"pracsim/internal/ticks"
)

// recycleConfig is a controller shape no other test builds, so a New of
// it finds spare storage only if a test here recycled it.
func recycleConfig() Config {
	cfg := DefaultConfig()
	cfg.ReadQueueCap, cfg.WriteQueueCap, cfg.WriteHi, cfg.WriteLo = 11, 9, 6, 2
	cfg.TREFEvery = 2
	return cfg
}

// recycleRig is newRig over a per-bank TPRAC policy, whose pending
// per-bank RFMs are part of the controller's storage.
func recycleRig(t *testing.T) *testRig {
	t.Helper()
	dcfg := smallDRAM(1024)
	policy, err := mitigation.NewTPRACPerBank(ticks.FromNS(3000), dcfg.Org.Banks())
	if err != nil {
		t.Fatal(err)
	}
	return newRig(t, dcfg, recycleConfig(), policy)
}

// drive offers the rig n requests over four banks and a few rows, reads
// logging their completions into *log, ticking the controller between
// them, then ticks on until the given deadline.
func (r *testRig) drive(n int, log *[]string, until ticks.T) {
	for i := range n {
		line := r.lineFor(i%4, i*7%5, i%3)
		req := &Request{Line: line, Write: i%3 == 0}
		if !req.Write {
			req.OnComplete = func(at ticks.T) { *log = append(*log, fmt.Sprintf("%d:%d", i, at)) }
		}
		r.ctrl.Enqueue(req, r.now)
		r.ctrl.Tick(r.now)
		r.now += CyclePeriod
	}
	r.run(until, nil)
}

// snapshotCtrl is c's state with its module, mapper, policy and storage
// pointers dropped, the queues compared over their whole capacity and an
// empty pending-RFM buffer made nil.
func snapshotCtrl(c *Controller) Controller {
	s := *c
	s.mod, s.mapper, s.policy, s.state = nil, nil, nil, nil
	s.readQ, s.writeQ = s.readQ[:cap(s.readQ)], s.writeQ[:cap(s.writeQ)]
	if len(s.pbPending) == 0 {
		s.pbPending = nil
	}
	return s
}

// TestRecycledControllerMatchesFresh builds a controller on the storage
// of one recycled with reads and writes queued, refreshes owed, per-bank
// RFMs pending and FR-FCFS stamps and a hit streak set, checks that it equals a freshly
// allocated controller field for field, then runs both over the same
// requests: the same completions at the same times and the same
// counters, and no completion of the recycled controller's queued reads.
func TestRecycledControllerMatchesFresh(t *testing.T) {
	old := recycleRig(t)
	var oldLog []string
	old.drive(60, &oldLog, 0)
	// Row hits served past an older conflict leave a hit streak; the
	// conflict stays queued.
	old.run(old.now+ticks.FromNS(5000), func() bool { r, _ := old.ctrl.QueueLen(); return r == 0 })
	for _, row := range []int{6, 7, 6, 6, 6} {
		old.ctrl.Enqueue(&Request{Line: old.lineFor(3, row, 5)}, old.now)
	}
	old.run(old.now+ticks.FromNS(5000), func() bool { return old.ctrl.hitStreak[3] > 0 })
	for i := range 3 {
		old.ctrl.Enqueue(&Request{Line: old.lineFor(i, 1, 1), Write: true}, old.now)
	}
	old.now += 2 * old.mod.Config().Timing.TREFI // owe refreshes
	old.ctrl.accrueMaintenance(old.now)
	reads, writes := old.ctrl.QueueLen()
	c := old.ctrl
	if reads == 0 || writes == 0 || c.triedGen == 0 || len(c.writeLines) == 0 || len(c.pbPending) == 0 || c.hitStreak[3] == 0 {
		t.Fatalf("dirty controller left fresh state: %d reads, %d writes queued, triedGen %d, %d forwarding lines, %d pending RFMpbs, bank 3 hit streak %d",
			reads, writes, c.triedGen, len(c.writeLines), len(c.pbPending), c.hitStreak[3])
	}
	var debt int
	for _, d := range c.refDebt {
		debt += d
	}
	if debt == 0 {
		t.Fatal("dirty controller owes no refresh")
	}
	st := c.state
	c.Recycle()
	stale := len(oldLog)

	recycled, fresh := recycleRig(t), recycleRig(t)
	if recycled.ctrl.state != st {
		t.Fatal("New after Recycle allocated instead of taking the recycled storage")
	}
	if fresh.ctrl.state == st {
		t.Fatal("two controllers share storage")
	}
	if g, w := snapshotCtrl(recycled.ctrl), snapshotCtrl(fresh.ctrl); !reflect.DeepEqual(g, w) {
		t.Fatalf("recycled controller differs from a fresh one:\n got %+v\nwant %+v", g, w)
	}
	var gotLog, wantLog []string
	recycled.drive(200, &gotLog, ticks.FromNS(3000))
	fresh.drive(200, &wantLog, ticks.FromNS(3000))
	if len(oldLog) != stale {
		t.Errorf("%d reads queued in the recycled controller completed later", len(oldLog)-stale)
	}
	if g, w := recycled.ctrl.Stats(), fresh.ctrl.Stats(); g != w {
		t.Errorf("recycled controller stats %+v, fresh %+v", g, w)
	}
	if !reflect.DeepEqual(gotLog, wantLog) {
		t.Errorf("recycled controller completed %v, fresh %v", gotLog, wantLog)
	}
}

// TestRecycledControllerPanics checks that a recycled-away controller
// cannot be used by mistake: Enqueue, Tick and NextWork panic instead of
// touching queues that may belong to another controller, and a second
// Recycle does not hand the storage out twice.
func TestRecycledControllerPanics(t *testing.T) {
	rig := recycleRig(t)
	line := rig.lineFor(1, 2, 0)
	rig.ctrl.Enqueue(&Request{Line: line}, 0)
	before := spare.Held()["memctrl"]
	rig.ctrl.Recycle()
	rig.ctrl.Recycle()
	if n := spare.Held()["memctrl"] - before; n != 1 {
		t.Errorf("recycling one controller twice added %d spare storages, want 1", n)
	}
	for name, use := range map[string]func(){
		"Enqueue read":  func() { rig.ctrl.Enqueue(&Request{Line: line}, 4) },
		"Enqueue write": func() { rig.ctrl.Enqueue(&Request{Line: line, Write: true}, 4) },
		"Tick":          func() { rig.ctrl.Tick(4) },
		"NextWork":      func() { rig.ctrl.NextWork(4) },
	} {
		if !panics(use) {
			t.Errorf("%s on a recycled controller did not panic", name)
		}
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
