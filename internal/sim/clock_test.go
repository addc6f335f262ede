package sim

import (
	"testing"

	"pracsim/internal/dram"
	"pracsim/internal/memctrl"
	"pracsim/internal/mitigation"
	"pracsim/internal/ticks"
)

// clockStream is everything a timed request stream exposes that the
// controller's clocking must not change.
type clockStream struct {
	done []ticks.T // per request: read completion, 0 for a write, -1 if refused
	ctrl memctrl.Stats
	dram dram.Stats
}

// playClockStream decodes data into a timed request stream and plays it on
// one controller under clock. data[0] picks the policy; every following
// 3-byte record is one request: the bank, the row and write flag, and the
// delay since the previous request. Delays below 128 are ticks, so
// several requests can land inside one controller cycle; larger ones are
// gaps of up to about 1 µs, long enough to cross refresh, TB-RFM and
// counter-reset deadlines.
func playClockStream(t *testing.T, data []byte, clock Clocking) clockStream {
	dcfg := dram.DefaultConfig(4)
	dcfg.Org.Ranks, dcfg.Org.BankGroups, dcfg.Org.BanksPerGroup = 2, 2, 2
	dcfg.Org.Rows = 64
	dcfg.Timing.TREFW = ticks.FromUS(40)
	var policy mitigation.Policy = mitigation.NewABOOnly()
	var err error
	switch data[0] % 4 {
	case 1:
		policy, err = mitigation.NewACB(dcfg.Org.Banks(), 8)
	case 2:
		policy, err = mitigation.NewTPRAC(ticks.FromUS(2), false)
	case 3:
		policy, err = mitigation.NewTPRACPerBank(ticks.FromUS(2), dcfg.Org.Banks())
	}
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dram.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := memctrl.NewLinearMapper(dcfg.Org)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := memctrl.DefaultConfig()
	ccfg.ReadQueueCap, ccfg.WriteQueueCap = 16, 16
	ccfg.WriteHi, ccfg.WriteLo = 12, 4
	ctrl, err := memctrl.New(ccfg, mod, mapper, policy)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	NewControllerClock(eng, ctrl, nil, clock)

	recs := data[1:]
	n := min(len(recs)/3, 512)
	out := clockStream{done: make([]ticks.T, n)}
	at := ticks.T(0)
	for i := 0; i < n; i++ {
		b, rw, d := recs[3*i], recs[3*i+1], recs[3*i+2]
		if d < 128 {
			at += ticks.T(d)
		} else {
			at += ticks.T(d-127) * ticks.FromNS(8)
		}
		req := memctrl.Request{
			Line:  mapper.Encode(memctrl.Loc{Bank: int(b) % dcfg.Org.Banks(), Row: int(rw>>1) % 4, Col: int(b>>3) % 4}),
			Write: rw&1 == 1,
		}
		if !req.Write {
			req.OnComplete = func(done ticks.T) { out.done[i] = done }
		}
		eng.At(at, func(now ticks.T) {
			if !ctrl.Enqueue(&req, now) {
				out.done[i] = -1
			}
		})
	}
	eng.Run(at + ticks.FromUS(20))
	out.ctrl, out.dram = ctrl.Stats(), mod.Stats()
	return out
}

// FuzzControllerClockMatchesPerCycle decodes arbitrary bytes into timed
// request streams under ABO-Only at NBO 4, ACB, TPRAC and TPRAC-pb, and
// plays each on a demand-clocked and a per-cycle controller: every read
// must complete at the same time, and the controller and DRAM counters
// must match. Bank, row and column choices are narrow (8 banks in 2
// ranks, 4 rows each), so streams mix row hits, conflicts, Alerts, RFMs
// and refreshes.
func FuzzControllerClockMatchesPerCycle(f *testing.F) {
	hammer := []byte{0}
	for i := 0; i < 200; i++ {
		hammer = append(hammer, 1, byte(2*(i%3)), 20) // one bank, three rows
	}
	f.Add(hammer)
	mixed := []byte{0}
	for i := 0; i < 120; i++ {
		mixed = append(mixed, byte(i*37), byte(i*11), byte(i*53))
	}
	for p := byte(0); p < 4; p++ {
		m := append([]byte(nil), mixed...)
		m[0] = p
		f.Add(m)
	}
	f.Add([]byte{2, 0, 0, 0, 9, 3, 255, 0, 0, 200, 5, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		demand := playClockStream(t, data, ClockDemand)
		perCycle := playClockStream(t, data, ClockPerCycle)
		for i := range demand.done {
			if demand.done[i] != perCycle.done[i] {
				t.Fatalf("request %d: demand %v, per-cycle %v", i, demand.done[i], perCycle.done[i])
			}
		}
		if demand.ctrl != perCycle.ctrl {
			t.Fatalf("controller stats diverge:\ndemand    %+v\nper-cycle %+v", demand.ctrl, perCycle.ctrl)
		}
		if demand.dram != perCycle.dram {
			t.Fatalf("DRAM stats diverge:\ndemand    %+v\nper-cycle %+v", demand.dram, perCycle.dram)
		}
	})
}
