package memctrl

import (
	"testing"

	"pracsim/internal/dram"
	"pracsim/internal/mitigation"
	"pracsim/internal/ticks"
)

// TestWriteForwardIndexTracksQueue pins the O(1) forwarding index against
// queue movement: forwarding must trigger exactly while a write to the
// line is queued, including duplicate writes, and stop once the last one
// drains to DRAM.
func TestWriteForwardIndexTracksQueue(t *testing.T) {
	rig := newRig(t, smallDRAM(1024), DefaultConfig(), mitigation.NewABOOnly())
	line := rig.lineFor(1, 9, 3)
	other := rig.lineFor(2, 4, 1)

	// Two writes to the same line, one to another: forwarding must hit
	// while either same-line write is in flight.
	for i := 0; i < 2; i++ {
		if !rig.ctrl.Enqueue(&Request{Line: line, Write: true}, rig.now) {
			t.Fatal("write refused")
		}
	}
	if !rig.ctrl.Enqueue(&Request{Line: other, Write: true}, rig.now) {
		t.Fatal("write refused")
	}
	var done ticks.T
	rig.ctrl.Enqueue(&Request{Line: line, OnComplete: func(at ticks.T) { done = at }}, rig.now)
	if done == 0 {
		t.Fatal("read of doubly-pending write was not forwarded")
	}
	if s := rig.ctrl.Stats(); s.WriteForward != 1 {
		t.Fatalf("WriteForward = %d, want 1", s.WriteForward)
	}

	// Drain every write, then the index must be empty: reads go to DRAM.
	rig.run(rig.now+ticks.FromUS(20), func() bool {
		_, w := rig.ctrl.QueueLen()
		return w == 0
	})
	if n := len(rig.ctrl.writeLines); n != 0 {
		t.Fatalf("forwarding index holds %d lines after drain, want 0", n)
	}
	done = 0
	rig.ctrl.Enqueue(&Request{Line: line, OnComplete: func(at ticks.T) { done = at }}, rig.now)
	if done != 0 {
		t.Fatal("read forwarded after all writes drained")
	}
	if s := rig.ctrl.Stats(); s.WriteForward != 1 {
		t.Fatalf("WriteForward = %d after drain, want still 1", s.WriteForward)
	}
}

// TestWriteForwardDeepQueue forwards against a near-full write queue —
// the regime where the old O(n) scan was quadratic across enqueues.
func TestWriteForwardDeepQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteHi = 63 // don't start draining during setup
	rig := newRig(t, smallDRAM(1024), cfg, mitigation.NewABOOnly())
	var lines []uint64
	for i := 0; i < 60; i++ {
		l := rig.lineFor(i%4, i/4, i%8)
		lines = append(lines, l)
		if !rig.ctrl.Enqueue(&Request{Line: l, Write: true}, 0) {
			t.Fatalf("write %d refused", i)
		}
	}
	forwarded := 0
	for _, l := range lines {
		rig.ctrl.Enqueue(&Request{Line: l, OnComplete: func(ticks.T) { forwarded++ }}, 0)
	}
	if forwarded != len(lines) {
		t.Fatalf("forwarded %d of %d reads against a deep write queue", forwarded, len(lines))
	}
}

func TestNextWorkBusyThenQuiescent(t *testing.T) {
	rig := newRig(t, smallDRAM(1024), DefaultConfig(), mitigation.NewABOOnly())
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 5, 0)}, 0)
	if next := rig.ctrl.NextWork(0); next != CyclePeriod {
		t.Fatalf("NextWork = %v with a queued read, want next cycle", next)
	}
	// Drain the read; the controller then has only its refresh schedule.
	var done ticks.T
	rig.run(ticks.FromUS(2), func() bool {
		r, w := rig.ctrl.QueueLen()
		return r == 0 && w == 0 && done >= 0
	})
	next := rig.ctrl.NextWork(rig.now)
	if next <= rig.now || next == ticks.Never {
		t.Fatalf("NextWork = %v for an idle controller, want the refresh deadline", next)
	}
	trefi := rig.mod.Config().Timing.TREFI
	if next > trefi+rig.now {
		t.Fatalf("NextWork = %v, beyond one tREFI (%v) from now", next, trefi)
	}
}

func TestNextWorkNoRefreshQuiescentForever(t *testing.T) {
	dcfg := smallDRAM(1024)
	dcfg.PRAC.ResetOnREFW = false
	ccfg := DefaultConfig()
	ccfg.NoRefresh = true
	rig := newRig(t, dcfg, ccfg, mitigation.NewABOOnly())
	if next := rig.ctrl.NextWork(0); next != ticks.Never {
		t.Fatalf("NextWork = %v with refresh off and no policy deadline, want Never", next)
	}
}

func TestNextWorkSeesPolicyDeadline(t *testing.T) {
	window := ticks.FromNS(500)
	p, err := mitigation.NewTPRAC(window, false)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := smallDRAM(1024)
	dcfg.PRAC.ResetOnREFW = false
	ccfg := DefaultConfig()
	ccfg.NoRefresh = true
	rig := newRig(t, dcfg, ccfg, p)
	if next := rig.ctrl.NextWork(0); next != window {
		t.Fatalf("NextWork = %v, want the TB-Window deadline %v", next, window)
	}
}

// TestWakerFiresOnEveryQueuedRequest pins the waker contract: a deferred
// controller may hold queued work and sleep towards a later command, so
// every queued request must be able to pull its clock forward, while a
// read served by write forwarding queues nothing and stays silent.
func TestWakerFiresOnEveryQueuedRequest(t *testing.T) {
	rig := newRig(t, smallDRAM(1024), DefaultConfig(), mitigation.NewABOOnly())
	var wakes []ticks.T
	rig.ctrl.SetWaker(func(now ticks.T) { wakes = append(wakes, now) })
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 1, 0)}, 8)
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 2, 0)}, 8)
	write := rig.lineFor(1, 1, 0)
	rig.ctrl.Enqueue(&Request{Line: write, Write: true}, 12)
	rig.ctrl.Enqueue(&Request{Line: write}, 16) // forwarded from the write
	want := []ticks.T{8, 8, 12}
	if len(wakes) != len(want) {
		t.Fatalf("wakes = %v, want %v (one per queued request)", wakes, want)
	}
	for i := range want {
		if wakes[i] != want[i] {
			t.Fatalf("wakes = %v, want %v (one per queued request)", wakes, want)
		}
	}
}

// TestNextWorkIsEarliestLegalCommand walks one read through ACT and RD:
// with work queued, NextWork must name the cycle the next command becomes
// legal (tRCD after the ACT), not the next cycle.
func TestNextWorkIsEarliestLegalCommand(t *testing.T) {
	ccfg := DefaultConfig()
	ccfg.NoRefresh = true
	dcfg := smallDRAM(1024)
	dcfg.PRAC.ResetOnREFW = false
	rig := newRig(t, dcfg, ccfg, mitigation.NewABOOnly())
	tm := dcfg.Timing
	var done ticks.T
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 5, 0), OnComplete: func(at ticks.T) { done = at }}, 0)
	if next := rig.ctrl.NextWork(0); next != CyclePeriod {
		t.Fatalf("NextWork = %v with an ACT legal now, want the next cycle", next)
	}
	rig.ctrl.Tick(0) // ACT
	if next := rig.ctrl.NextWork(0); next != tm.TRCD {
		t.Fatalf("NextWork = %v after the ACT, want tRCD = %v", next, tm.TRCD)
	}
	rig.ctrl.Tick(tm.TRCD) // RD
	if done == 0 {
		t.Fatal("read did not issue at tRCD")
	}
	if next := rig.ctrl.NextWork(tm.TRCD); next != ticks.Never {
		t.Fatalf("NextWork = %v for a drained controller without deadlines, want Never", next)
	}
}

// TestNextWorkRowConflictWaitsForPrecharge queues a read to another row of
// an open bank: the controller must sleep until the PRE becomes legal
// (tRAS after the ACT), then until tRP has passed for the new ACT.
func TestNextWorkRowConflictWaitsForPrecharge(t *testing.T) {
	ccfg := DefaultConfig()
	ccfg.NoRefresh = true
	dcfg := smallDRAM(1024)
	dcfg.PRAC.ResetOnREFW = false
	rig := newRig(t, dcfg, ccfg, mitigation.NewABOOnly())
	tm := dcfg.Timing
	if !rig.mod.CanIssue(dram.Cmd{Kind: dram.CmdACT, Bank: 0, Row: 1}, 0) {
		t.Fatal("setup ACT illegal")
	}
	rig.mod.Issue(dram.Cmd{Kind: dram.CmdACT, Bank: 0, Row: 1}, 0)
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 2, 0)}, 0)
	if next := rig.ctrl.NextWork(0); next != tm.TRAS {
		t.Fatalf("NextWork = %v with a row conflict, want tRAS = %v", next, tm.TRAS)
	}
	rig.ctrl.Tick(tm.TRAS) // PRE
	if next := rig.ctrl.NextWork(tm.TRAS); next != tm.TRAS+tm.TRP {
		t.Fatalf("NextWork = %v after the PRE, want PRE+tRP = %v", next, tm.TRAS+tm.TRP)
	}
}

// TestNextWorkHoldsNextCycleWhileAlerted pins the cycle an Alert still
// needs ticked without a command: the first controller tick after the
// Alert asserts arms the tABOACT deadline from its own time, so until that
// tick has run the answer stays at the next cycle. Once armed, the
// deadline is an ordinary wake-up (TestIdleTickWakesAtABODeadline).
func TestNextWorkHoldsNextCycleWhileAlerted(t *testing.T) {
	rig := newRig(t, smallDRAM(1), DefaultConfig(), mitigation.NewABOOnly())
	tm := rig.mod.Config().Timing
	rig.mod.Issue(dram.Cmd{Kind: dram.CmdACT, Bank: 0, Row: 1}, 0)
	rig.mod.Issue(dram.Cmd{Kind: dram.CmdPRE, Bank: 0}, tm.TRAS) // reaches NBO=1
	if !rig.mod.AlertAsserted() {
		t.Fatal("activation at NBO raised no Alert")
	}
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(1, 1, 0)}, tm.TRAS)
	if next := rig.ctrl.NextWork(tm.TRAS); next != tm.TRAS+CyclePeriod {
		t.Fatalf("NextWork = %v while alerted, want the next cycle %v", next, tm.TRAS+CyclePeriod)
	}
}

// exactRig is a controller with refresh and counter resets off, so the
// only deadlines are the ones a test sets up.
func exactRig(t *testing.T, nbo int) (*testRig, dram.Timing) {
	t.Helper()
	ccfg := DefaultConfig()
	ccfg.NoRefresh = true
	dcfg := smallDRAM(nbo)
	dcfg.PRAC.ResetOnREFW = false
	return newRig(t, dcfg, ccfg, mitigation.NewABOOnly()), dcfg.Timing
}

// TestIdleTickWaitsForOldestHit pins the FR-FCFS order in the wake-up: the
// oldest row hit is still inside tRCD while a younger hit in another bank
// could read now. FR-FCFS serves only the oldest uncapped hit, so the
// cycle issues nothing, and the idle tick must name the oldest hit's RD
// time, where NextWork's scan of every request says the next cycle.
func TestIdleTickWaitsForOldestHit(t *testing.T) {
	rig, tm := exactRig(t, 1024)
	rig.mod.Issue(dram.Cmd{Kind: dram.CmdACT, Bank: 1, Row: 7}, 0)
	rig.mod.Issue(dram.Cmd{Kind: dram.CmdACT, Bank: 0, Row: 5}, tm.TRCD)
	now := tm.TRCD
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 5, 0)}, now) // oldest: RD legal at 2 tRCD
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(1, 7, 0)}, now) // younger: RD legal now
	if next := rig.ctrl.NextWork(now); next != now+CyclePeriod {
		t.Fatalf("NextWork = %v, want its over-approximation, the next cycle %v", next, now+CyclePeriod)
	}
	next, idle := rig.ctrl.Tick(now)
	if !idle {
		t.Fatalf("the tick issued a command: %+v", rig.mod.Stats())
	}
	if want := 2 * tm.TRCD; next != want {
		t.Fatalf("idle tick reports %v, want the oldest hit's RD at %v", next, want)
	}
	if _, idle := rig.ctrl.Tick(next); idle {
		t.Fatal("no command issued at the reported time")
	}
	if s := rig.mod.Stats(); s.RDs != 1 {
		t.Fatalf("RDs = %d at the reported time, want the oldest hit's", s.RDs)
	}
}

// TestIdleTickWaitsForABODrain pins that queued ABO RFMs no longer hold
// the controller at every cycle: the RFMab waits for a bank inside tRAS,
// and the idle tick must name the draining PRE's time.
func TestIdleTickWaitsForABODrain(t *testing.T) {
	rig, tm := exactRig(t, 1)
	rig.mod.Issue(dram.Cmd{Kind: dram.CmdACT, Bank: 0, Row: 1}, 0)
	rig.mod.Issue(dram.Cmd{Kind: dram.CmdPRE, Bank: 0}, tm.TRAS) // reaches NBO=1
	armAt := tm.TRAS + CyclePeriod
	if _, idle := rig.ctrl.Tick(armAt); !idle {
		t.Fatal("the arming tick issued a command")
	}
	deadline := armAt + tm.TABOACT
	actAt := deadline - CyclePeriod
	rig.mod.Issue(dram.Cmd{Kind: dram.CmdACT, Bank: 2, Row: 3}, actAt)
	next, idle := rig.ctrl.Tick(deadline) // queues the ABO RFM; bank 2 holds it
	if !idle || rig.ctrl.aboRFMs != 1 {
		t.Fatalf("setup: idle %v with %d ABO RFMs queued, want an idle tick with 1", idle, rig.ctrl.aboRFMs)
	}
	if want := actAt + tm.TRAS; next != want {
		t.Fatalf("idle tick reports %v with an ABO RFM queued behind bank 2, want its PRE at %v", next, want)
	}
	rig.ctrl.Tick(next)               // the draining PRE
	rig.ctrl.Tick(next + CyclePeriod) // the RFMab
	if s := rig.ctrl.Stats(); s.ABORFMs != 1 {
		t.Fatalf("ABORFMs = %d, want the queued RFM issued", s.ABORFMs)
	}
}

// TestIdleTickWakesAtABODeadline pins the armed Alert as a deadline: with
// the tABOACT window open, ACT budget left and nothing to issue, the idle
// tick reports the deadline, and a tick there queues and issues the RFM.
func TestIdleTickWakesAtABODeadline(t *testing.T) {
	rig, tm := exactRig(t, 1)
	rig.mod.Issue(dram.Cmd{Kind: dram.CmdACT, Bank: 0, Row: 1}, 0)
	rig.mod.Issue(dram.Cmd{Kind: dram.CmdPRE, Bank: 0}, tm.TRAS) // reaches NBO=1
	armAt := tm.TRAS + tm.TRP
	next, idle := rig.ctrl.Tick(armAt)
	if !idle {
		t.Fatal("the arming tick issued a command")
	}
	if want := armAt + tm.TABOACT; next != want {
		t.Fatalf("idle tick reports %v while alerted, want the tABOACT deadline %v", next, want)
	}
	if next := rig.ctrl.NextWork(armAt); next != armAt+tm.TABOACT {
		t.Fatalf("NextWork = %v with the deadline armed, want %v", next, armAt+tm.TABOACT)
	}
	rig.ctrl.Tick(next)
	if s := rig.ctrl.Stats(); s.ABORFMs != 1 || rig.mod.AlertAsserted() {
		t.Fatalf("at the deadline: %d ABO RFMs, Alert %v; want 1 RFM and the Alert cleared", s.ABORFMs, rig.mod.AlertAsserted())
	}
}

// TestNextWorkDrainsForPendingRFM covers a maintenance command whose
// scope holds an open row no queued request will close: a TB-RFM falling
// due just after an ACT must wake the controller when tRAS allows the
// draining PRE, even with no request queued.
func TestNextWorkDrainsForPendingRFM(t *testing.T) {
	window := ticks.FromNS(500)
	p, err := mitigation.NewTPRAC(window, false)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := DefaultConfig()
	ccfg.NoRefresh = true
	dcfg := smallDRAM(1024)
	dcfg.PRAC.ResetOnREFW = false
	rig := newRig(t, dcfg, ccfg, p)
	actAt := window - 2*CyclePeriod
	rig.mod.Issue(dram.Cmd{Kind: dram.CmdACT, Bank: 2, Row: 3}, actAt)
	rig.ctrl.Tick(window) // the TB-RFM falls due; bank 2 is inside tRAS
	if s := rig.mod.Stats(); s.PREs != 0 || s.RFMs != 0 {
		t.Fatalf("setup issued commands early: %+v", s)
	}
	want := actAt + dcfg.Timing.TRAS
	if next := rig.ctrl.NextWork(window); next != want {
		t.Fatalf("NextWork = %v with an RFM waiting on an open row, want the PRE at %v", next, want)
	}
}

// TestNextWorkSeesDrainModeFlip pins the other state change that needs no
// command: once the write queue drains to WriteLo, the next schedule call
// leaves write-drain mode, so NextWork must answer the next cycle even
// though the remaining write waits tWR for its PRE.
func TestNextWorkSeesDrainModeFlip(t *testing.T) {
	ccfg := DefaultConfig()
	ccfg.NoRefresh = true
	ccfg.WriteHi, ccfg.WriteLo = 3, 1
	dcfg := smallDRAM(1024)
	dcfg.PRAC.ResetOnREFW = false
	rig := newRig(t, dcfg, ccfg, mitigation.NewABOOnly())
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 1, 0), Write: true}, 0)
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 1, 1), Write: true}, 0)
	rig.ctrl.Enqueue(&Request{Line: rig.lineFor(0, 2, 0), Write: true}, 0)
	rig.run(ticks.FromUS(1), func() bool {
		_, w := rig.ctrl.QueueLen()
		return w == 1
	})
	if !rig.ctrl.draining {
		t.Fatal("setup: controller left drain mode early")
	}
	last := rig.now - CyclePeriod
	if next := rig.ctrl.NextWork(last); next != last+CyclePeriod {
		t.Fatalf("NextWork = %v with a drain-mode flip pending, want the next cycle %v", next, last+CyclePeriod)
	}
}

// TestTickAllocFree is the allocation-free assertion for the controller
// hot path: steady-state ticking — including FR-FCFS scans with the
// generation-stamped scratch state and maintenance accrual — must not
// allocate. Requests are pre-allocated and re-enqueued on completion so
// the workload itself adds nothing. The measured ticks span a refresh,
// and under TPRAC-pb a per-bank RFM falls due every 250 ns: DuePerBank
// appends into the controller's pending buffer instead of returning a
// fresh slice.
func TestTickAllocFree(t *testing.T) {
	perBank, err := mitigation.NewTPRACPerBank(ticks.FromUS(1), smallDRAM(1024).Org.Banks())
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []mitigation.Policy{mitigation.NewABOOnly(), perBank} {
		t.Run(policy.Name(), func(t *testing.T) {
			rig := newRig(t, smallDRAM(1024), DefaultConfig(), policy)
			reqs := make([]*Request, 16)
			for i := range reqs {
				reqs[i] = &Request{Line: rig.lineFor(i%4, i, 0), OnComplete: func(ticks.T) {}}
				if !rig.ctrl.Enqueue(reqs[i], 0) {
					t.Fatalf("request %d refused", i)
				}
			}
			rig.run(ticks.FromUS(2), nil) // steady state: queues warm, rows open
			// Measure 500-tick blocks: AllocsPerRun truncates its average,
			// so a per-call measurement would hide a cost paid once per
			// refresh or per-bank RFM.
			allocs := testing.AllocsPerRun(4, func() {
				for i := 0; i < 500; i++ {
					rig.ctrl.Tick(rig.now)
					rig.now += CyclePeriod
				}
			})
			if allocs != 0 {
				t.Errorf("500 ticks allocate %.0f objects, want 0", allocs)
			}
			if policy == perBank && rig.ctrl.Stats().PolicyRFMs == 0 {
				t.Fatal("TPRAC-pb issued no per-bank RFMs")
			}
		})
	}
}

// TestEnqueueAllocFree is the allocation guard for admission: Enqueue of
// a stack-literal request copies it into the controller's queue storage,
// so neither the literal nor the queue allocates. Each call enqueues a
// read and a posted write, then ticks until the read has completed.
func TestEnqueueAllocFree(t *testing.T) {
	rig := newRig(t, smallDRAM(1024), DefaultConfig(), mitigation.NewABOOnly())
	var done bool
	complete := func(ticks.T) { done = true }
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		i++
		done = false
		if !rig.ctrl.Enqueue(&Request{Line: rig.lineFor(i%4, i%64, 0), OnComplete: complete}, rig.now) {
			t.Fatal("read refused by a drained controller")
		}
		rig.ctrl.Enqueue(&Request{Line: rig.lineFor((i+1)%4, i%32, 1), Write: true}, rig.now)
		for !done {
			rig.ctrl.Tick(rig.now)
			rig.now += CyclePeriod
		}
	})
	if allocs != 0 {
		t.Errorf("Enqueue allocates %.2f objects per request, want 0", allocs)
	}
	if s := rig.ctrl.Stats(); s.Reads < 2000 || s.Writes < 2000 {
		t.Fatalf("guard did not exercise reads and writes: %+v", s)
	}
}

// BenchmarkControllerTickSaturated drives the controller with a
// self-refilling read stream: every tick schedules against warm queues.
func BenchmarkControllerTickSaturated(b *testing.B) {
	dcfg := smallDRAM(1 << 20)
	mod, err := dram.New(dcfg)
	if err != nil {
		b.Fatal(err)
	}
	mapper, err := NewLinearMapper(dcfg.Org)
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := New(DefaultConfig(), mod, mapper, mitigation.NewABOOnly())
	if err != nil {
		b.Fatal(err)
	}
	now := ticks.T(0)
	row := 0
	var refill func(at ticks.T)
	pending := 0
	refill = func(ticks.T) { pending-- }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pending < 16 {
			row++
			if ctrl.Enqueue(&Request{Line: mapper.Encode(Loc{Bank: row % 4, Row: row % 256}), OnComplete: refill}, now) {
				pending++
			} else {
				break
			}
		}
		ctrl.Tick(now)
		now += CyclePeriod
	}
}

// BenchmarkControllerEnqueueDeepWriteQueue measures read enqueue against
// a deep write queue — the path the forwarding index turned O(1).
func BenchmarkControllerEnqueueDeepWriteQueue(b *testing.B) {
	dcfg := smallDRAM(1 << 20)
	mod, err := dram.New(dcfg)
	if err != nil {
		b.Fatal(err)
	}
	mapper, err := NewLinearMapper(dcfg.Org)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WriteQueueCap = 256
	cfg.WriteHi = 255
	ctrl, err := New(cfg, mod, mapper, mitigation.NewABOOnly())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 250; i++ {
		if !ctrl.Enqueue(&Request{Line: mapper.Encode(Loc{Bank: i % 4, Row: i % 256}), Write: true}, 0) {
			b.Fatalf("write %d refused", i)
		}
	}
	miss := &Request{Line: mapper.Encode(Loc{Bank: 3, Row: 255, Col: 7})}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A non-forwarded read probes the index once; drop it from the
		// read queue again so the enqueue path stays the measured cost.
		if ctrl.Enqueue(miss, 0) {
			ctrl.readQ = ctrl.readQ[:0]
		}
	}
}
