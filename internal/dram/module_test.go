package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pracsim/internal/ticks"
)

// smallConfig keeps row counts small so tests exercising full banks run fast.
func smallConfig(nbo int) Config {
	cfg := DefaultConfig(nbo)
	cfg.Org.Ranks = 1
	cfg.Org.BankGroups = 2
	cfg.Org.BanksPerGroup = 2
	cfg.Org.Rows = 64
	return cfg
}

// wantReady checks ReadyAt for each command against the timing table.
func wantReady(t *testing.T, m *Module, when string, want map[Cmd]ticks.T) {
	t.Helper()
	for cmd, at := range want {
		if got := m.ReadyAt(cmd); got != at {
			t.Errorf("%s: ReadyAt(%v bank %d) = %v, want %v", when, cmd.Kind, cmd.Bank, got, at)
		}
	}
}

func TestActivateReadPrechargeTiming(t *testing.T) {
	m := MustNew(smallConfig(1024))
	tm := m.Config().Timing

	wantReady(t, m, "idle bank", map[Cmd]ticks.T{
		{Kind: CmdACT, Bank: 0, Row: 1}: 0,
		{Kind: CmdPRE, Bank: 0}:         ticks.Never,
		{Kind: CmdRD, Bank: 0}:          ticks.Never,
		{Kind: CmdWR, Bank: 0}:          ticks.Never,
	})
	if !m.CanIssue(Cmd{Kind: CmdACT, Bank: 0, Row: 1}, 0) {
		t.Fatal("ACT to idle bank at t=0 must be legal")
	}
	m.Issue(Cmd{Kind: CmdACT, Bank: 0, Row: 1}, 0)
	wantReady(t, m, "after ACT", map[Cmd]ticks.T{
		{Kind: CmdACT, Bank: 0, Row: 2}: ticks.Never,
		{Kind: CmdRD, Bank: 0}:          tm.TRCD,
		{Kind: CmdWR, Bank: 0}:          tm.TRCD,
		{Kind: CmdPRE, Bank: 0}:         tm.TRAS,
		{Kind: CmdREFab, Bank: 0}:       ticks.Never,
		{Kind: CmdRFMab}:                ticks.Never,
		{Kind: CmdRFMpb, Bank: 0}:       ticks.Never,
		{Kind: CmdACT, Bank: 1, Row: 1}: 0,
	})

	if m.CanIssue(Cmd{Kind: CmdRD, Bank: 0}, tm.TRCD-1) {
		t.Error("RD legal before tRCD")
	}
	if !m.CanIssue(Cmd{Kind: CmdRD, Bank: 0}, tm.TRCD) {
		t.Error("RD illegal at tRCD")
	}
	res := m.Issue(Cmd{Kind: CmdRD, Bank: 0}, tm.TRCD)
	wantData := tm.TRCD + tm.TCL + tm.TBURST
	if res.DataAt != wantData {
		t.Errorf("RD DataAt = %v, want %v", res.DataAt, wantData)
	}

	preAt := tm.TRCD + tm.TRTP // tRAS(16ns) < tRCD+tRTP(21ns)
	wantReady(t, m, "after RD", map[Cmd]ticks.T{{Kind: CmdPRE, Bank: 0}: preAt})
	if m.CanIssue(Cmd{Kind: CmdPRE, Bank: 0}, preAt-1) {
		t.Error("PRE legal before read-to-precharge window")
	}
	if !m.CanIssue(Cmd{Kind: CmdPRE, Bank: 0}, preAt) {
		t.Error("PRE illegal at tRCD+tRTP")
	}
	m.Issue(Cmd{Kind: CmdPRE, Bank: 0}, preAt)
	wantReady(t, m, "after PRE", map[Cmd]ticks.T{
		{Kind: CmdACT, Bank: 0, Row: 2}: preAt + tm.TRP, // later than tRC after the ACT
		{Kind: CmdPRE, Bank: 0}:         ticks.Never,
		{Kind: CmdRD, Bank: 0}:          ticks.Never,
		{Kind: CmdREFab, Bank: 0}:       preAt + tm.TRP,
	})

	if m.CanIssue(Cmd{Kind: CmdACT, Bank: 0, Row: 2}, preAt+tm.TRP-1) {
		t.Error("ACT legal before tRP after PRE")
	}
	if !m.CanIssue(Cmd{Kind: CmdACT, Bank: 0, Row: 2}, preAt+tm.TRP) {
		t.Error("ACT illegal at PRE+tRP")
	}
}

func TestTRCSameBank(t *testing.T) {
	m := MustNew(smallConfig(1024))
	tm := m.Config().Timing
	m.Issue(Cmd{Kind: CmdACT, Bank: 0, Row: 0}, 0)
	m.Issue(Cmd{Kind: CmdPRE, Bank: 0}, tm.TRAS)
	// After tRAS(16)+tRP(36)=52ns = tRC, so both constraints coincide here.
	wantReady(t, m, "after ACT+PRE", map[Cmd]ticks.T{{Kind: CmdACT, Bank: 0, Row: 1}: tm.TRC})
	if m.CanIssue(Cmd{Kind: CmdACT, Bank: 0, Row: 1}, tm.TRC-1) {
		t.Error("ACT legal before tRC")
	}
	if !m.CanIssue(Cmd{Kind: CmdACT, Bank: 0, Row: 1}, tm.TRC) {
		t.Error("ACT illegal at tRC")
	}
}

func TestWriteRecoveryBlocksPrecharge(t *testing.T) {
	m := MustNew(smallConfig(1024))
	tm := m.Config().Timing
	m.Issue(Cmd{Kind: CmdACT, Bank: 0, Row: 0}, 0)
	m.Issue(Cmd{Kind: CmdWR, Bank: 0}, tm.TRCD)
	preAt := tm.TRCD + tm.TCWL + tm.TBURST + tm.TWR
	if m.CanIssue(Cmd{Kind: CmdPRE, Bank: 0}, preAt-1) {
		t.Error("PRE legal during write recovery")
	}
	if !m.CanIssue(Cmd{Kind: CmdPRE, Bank: 0}, preAt) {
		t.Error("PRE illegal after write recovery")
	}
}

func TestDataBusSerializesReads(t *testing.T) {
	m := MustNew(smallConfig(1024))
	tm := m.Config().Timing
	m.Issue(Cmd{Kind: CmdACT, Bank: 0, Row: 0}, 0)
	m.Issue(Cmd{Kind: CmdACT, Bank: 1, Row: 0}, 1)
	r0 := m.Issue(Cmd{Kind: CmdRD, Bank: 0}, tm.TRCD)
	// Bank 1's read issued one tick later must queue behind bank 0's burst.
	r1 := m.Issue(Cmd{Kind: CmdRD, Bank: 1}, tm.TRCD+1)
	if r1.DataAt != r0.DataAt+tm.TBURST {
		t.Errorf("second read DataAt = %v, want %v (bus serialized)", r1.DataAt, r0.DataAt+tm.TBURST)
	}
}

func TestPRACCounterIncrementsOnPrecharge(t *testing.T) {
	m := MustNew(smallConfig(1024))
	tm := m.Config().Timing
	now := ticks.T(0)
	for i := 0; i < 3; i++ {
		m.Issue(Cmd{Kind: CmdACT, Bank: 2, Row: 7}, now)
		if got := m.RowCounter(2, 7); got != uint32(i) {
			t.Fatalf("counter after ACT %d = %d; increments must happen at PRE", i+1, got)
		}
		m.Issue(Cmd{Kind: CmdPRE, Bank: 2}, now+tm.TRAS)
		if got := m.RowCounter(2, 7); got != uint32(i+1) {
			t.Fatalf("counter after PRE %d = %d, want %d", i+1, got, i+1)
		}
		now += tm.TRC
	}
}

func hammer(t *testing.T, m *Module, bank, row, n int, start ticks.T) ticks.T {
	t.Helper()
	tm := m.Config().Timing
	now := start
	for i := 0; i < n; i++ {
		for !m.CanIssue(Cmd{Kind: CmdACT, Bank: bank, Row: row}, now) {
			now++
		}
		m.Issue(Cmd{Kind: CmdACT, Bank: bank, Row: row}, now)
		pre := now + tm.TRAS
		for !m.CanIssue(Cmd{Kind: CmdPRE, Bank: bank}, pre) {
			pre++
		}
		m.Issue(Cmd{Kind: CmdPRE, Bank: bank}, pre)
		now += tm.TRC
	}
	return now
}

func TestAlertAssertsAtNBO(t *testing.T) {
	m := MustNew(smallConfig(8))
	hammer(t, m, 0, 3, 7, 0)
	if m.AlertAsserted() {
		t.Fatal("Alert asserted before NBO")
	}
	hammer(t, m, 0, 3, 1, ticks.T(8)*m.Config().Timing.TRC)
	if !m.AlertAsserted() {
		t.Fatal("Alert not asserted at NBO")
	}
	if got := m.Stats().AlertsAsserted; got != 1 {
		t.Fatalf("AlertsAsserted = %d, want 1", got)
	}
}

func TestRFMabServicesAlertAndMitigates(t *testing.T) {
	cfg := smallConfig(8)
	cfg.PRAC.NMit = 1
	m := MustNew(cfg)
	end := hammer(t, m, 0, 3, 8, 0)
	if !m.AlertAsserted() {
		t.Fatal("Alert not asserted")
	}
	res := m.Issue(Cmd{Kind: CmdRFMab}, end)
	if res.MitigatedRows != 1 {
		t.Fatalf("RFMab mitigated %d rows, want 1", res.MitigatedRows)
	}
	if m.AlertAsserted() {
		t.Fatal("Alert still asserted after NMit RFMs")
	}
	if got := m.RowCounter(0, 3); got != 0 {
		t.Fatalf("mitigated row counter = %d, want 0", got)
	}
	if m.ChannelBlockedUntil() != end+m.Config().Timing.TRFMab {
		t.Fatalf("channel block = %v, want %v", m.ChannelBlockedUntil(), end+m.Config().Timing.TRFMab)
	}
}

func TestRFMabRequiresIdleBanksAndBlocksChannel(t *testing.T) {
	m := MustNew(smallConfig(1024))
	tm := m.Config().Timing
	m.Issue(Cmd{Kind: CmdACT, Bank: 0, Row: 0}, 0)
	if m.CanIssue(Cmd{Kind: CmdRFMab}, 1) {
		t.Fatal("RFMab legal with an open row")
	}
	wantReady(t, m, "open row", map[Cmd]ticks.T{{Kind: CmdRFMab}: ticks.Never})
	m.Issue(Cmd{Kind: CmdPRE, Bank: 0}, tm.TRAS)
	if at := m.ReadyAt(Cmd{Kind: CmdRFMab}); at > tm.TRAS+1 {
		t.Fatalf("ReadyAt(RFMab) = %v once every bank is idle, want by %v", at, tm.TRAS+1)
	}
	m.Issue(Cmd{Kind: CmdRFMab}, tm.TRAS+1)
	end := tm.TRAS + 1 + tm.TRFMab
	wantReady(t, m, "during RFMab", map[Cmd]ticks.T{
		{Kind: CmdACT, Bank: 1, Row: 0}: end,
		{Kind: CmdRFMab}:                end,
		{Kind: CmdRFMpb, Bank: 2}:       end,
		{Kind: CmdREFab, Bank: 0}:       end,
	})
	if m.CanIssue(Cmd{Kind: CmdACT, Bank: 1, Row: 0}, tm.TRAS+tm.TRFMab) {
		t.Error("ACT legal during RFM channel block")
	}
	if !m.CanIssue(Cmd{Kind: CmdACT, Bank: 1, Row: 0}, tm.TRAS+1+tm.TRFMab) {
		t.Error("ACT illegal after RFM block expires")
	}
}

func TestABODelayGatesReassertion(t *testing.T) {
	cfg := smallConfig(4)
	cfg.PRAC.NMit = 2
	m := MustNew(cfg)
	end := hammer(t, m, 0, 1, 4, 0)
	if !m.AlertAsserted() {
		t.Fatal("Alert not asserted at NBO")
	}
	// First RFM does not finish servicing at PRAC level 2.
	m.Issue(Cmd{Kind: CmdRFMab}, end)
	if !m.AlertAsserted() {
		t.Fatal("Alert cleared after 1 of 2 RFMs")
	}
	end2 := end + m.Config().Timing.TRFMab
	m.Issue(Cmd{Kind: CmdRFMab}, end2)
	if m.AlertAsserted() {
		t.Fatal("Alert still set after NMit RFMs")
	}
	// Hammer another row past NBO using a single activation; with
	// ABODelay = NMit = 2, the first post-RFM activation cannot alert.
	end3 := hammer(t, m, 1, 2, 4, end2+m.Config().Timing.TRFMab)
	_ = end3
	if got := m.Stats().AlertsAsserted; got != 2 {
		t.Fatalf("AlertsAsserted = %d, want 2 (reassert allowed after ABODelay)", got)
	}
}

func TestREFabBlocksRankOnly(t *testing.T) {
	cfg := DefaultConfig(1024)
	cfg.Org.Rows = 64
	m := MustNew(cfg)
	tm := m.Config().Timing
	m.Issue(Cmd{Kind: CmdREFab, Bank: 0}, 0) // rank 0
	otherRank := cfg.Org.BanksPerRank()      // first bank of rank 1
	wantReady(t, m, "during REFab", map[Cmd]ticks.T{
		{Kind: CmdACT, Bank: 0, Row: 0}:         tm.TRFC,
		{Kind: CmdRFMpb, Bank: 1}:               tm.TRFC,
		{Kind: CmdREFab, Bank: 0}:               tm.TRFC,
		{Kind: CmdRFMab}:                        tm.TRFC, // the whole channel waits for every rank
		{Kind: CmdACT, Bank: otherRank, Row: 0}: 0,
		{Kind: CmdREFab, Bank: 1}:               0,
	})
	if m.CanIssue(Cmd{Kind: CmdACT, Bank: 0, Row: 0}, tm.TRFC-1) {
		t.Error("ACT to refreshing rank legal before tRFC")
	}
	if !m.CanIssue(Cmd{Kind: CmdACT, Bank: otherRank, Row: 0}, 1) {
		t.Error("ACT to non-refreshing rank blocked by REFab")
	}
}

func TestTREFPerformsMitigation(t *testing.T) {
	m := MustNew(smallConfig(1024))
	end := hammer(t, m, 0, 5, 3, 0)
	res := m.Issue(Cmd{Kind: CmdREFab, Bank: 0, TREF: true}, end)
	if res.MitigatedRows != 1 {
		t.Fatalf("TREF mitigated %d rows, want 1", res.MitigatedRows)
	}
	if got := m.RowCounter(0, 5); got != 0 {
		t.Fatalf("row counter after TREF = %d, want 0", got)
	}
	if got := m.Stats().TREFMitigations; got != 1 {
		t.Fatalf("TREFMitigations = %d, want 1", got)
	}
}

func TestCounterResetOnREFW(t *testing.T) {
	cfg := smallConfig(1 << 30)
	cfg.Timing.TREFW = ticks.FromNS(1000)
	m := MustNew(cfg)
	hammer(t, m, 0, 9, 3, 0)
	if got := m.RowCounter(0, 9); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	m.Maintain(ticks.FromNS(1000))
	if got := m.RowCounter(0, 9); got != 0 {
		t.Fatalf("counter after tREFW reset = %d, want 0", got)
	}
	if got := m.Stats().CounterResets; got != 1 {
		t.Fatalf("CounterResets = %d, want 1", got)
	}
}

func TestNoResetWhenDisabled(t *testing.T) {
	cfg := smallConfig(1 << 30)
	cfg.Timing.TREFW = ticks.FromNS(1000)
	cfg.PRAC.ResetOnREFW = false
	m := MustNew(cfg)
	hammer(t, m, 0, 9, 3, 0)
	m.Maintain(ticks.FromNS(5000))
	if got := m.RowCounter(0, 9); got != 3 {
		t.Fatalf("counter = %d, want 3 (reset disabled)", got)
	}
}

func TestHottestRow(t *testing.T) {
	m := MustNew(smallConfig(1 << 30))
	end := hammer(t, m, 0, 4, 2, 0)
	hammer(t, m, 0, 8, 5, end)
	row, count := m.HottestRow(0)
	if row != 8 || count != 5 {
		t.Fatalf("HottestRow = %d,%d; want 8,5", row, count)
	}
}

func TestIllegalIssuePanics(t *testing.T) {
	m := MustNew(smallConfig(1024))
	for _, cmd := range []Cmd{
		{Kind: CmdRD, Bank: 0},           // no open row
		{Kind: CmdACT, Bank: 0, Row: -1}, // rows outside the bank
		{Kind: CmdACT, Bank: 0, Row: m.Config().Org.Rows},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Issue of illegal %v (row %d) did not panic", cmd.Kind, cmd.Row)
				}
			}()
			m.Issue(cmd, 0)
		}()
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig(1024)
	cfg.Org.Ranks = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

// Property: for any legal interleaving of ACT/PRE pairs across banks, a
// row's PRAC counter equals the number of completed ACT+PRE cycles on it.
func TestCounterMatchesActivationsProperty(t *testing.T) {
	prop := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := MustNew(smallConfig(1 << 30))
		tm := m.Config().Timing
		now := ticks.T(0)
		want := map[[2]int]uint32{}
		for i := 0; i < int(steps)+1; i++ {
			bank := rng.Intn(4)
			row := rng.Intn(8)
			for !m.CanIssue(Cmd{Kind: CmdACT, Bank: bank, Row: row}, now) {
				now++
			}
			m.Issue(Cmd{Kind: CmdACT, Bank: bank, Row: row}, now)
			pre := now + tm.TRAS
			for !m.CanIssue(Cmd{Kind: CmdPRE, Bank: bank}, pre) {
				pre++
			}
			m.Issue(Cmd{Kind: CmdPRE, Bank: bank}, pre)
			want[[2]int{bank, row}]++
			now++
		}
		for key, w := range want {
			if m.RowCounter(key[0], key[1]) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: stats conservation — ACT count always equals PRE count after
// every bank is closed, and mitigated rows never exceed issued RFMs * banks.
func TestStatsConservationProperty(t *testing.T) {
	prop := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := MustNew(smallConfig(1 << 30))
		tm := m.Config().Timing
		now := ticks.T(0)
		for i := 0; i < int(steps)+1; i++ {
			bank := rng.Intn(4)
			now = hammerOne(m, bank, rng.Intn(8), now)
			if rng.Intn(8) == 0 {
				for !m.CanIssue(Cmd{Kind: CmdRFMab}, now) {
					now++
				}
				m.Issue(Cmd{Kind: CmdRFMab}, now)
				now += tm.TRFMab
			}
		}
		s := m.Stats()
		if s.ACTs != s.PREs {
			return false
		}
		return s.MitigatedRows <= s.RFMs*int64(m.Config().Org.Banks())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func hammerOne(m *Module, bank, row int, start ticks.T) ticks.T {
	tm := m.Config().Timing
	now := start
	for !m.CanIssue(Cmd{Kind: CmdACT, Bank: bank, Row: row}, now) {
		now++
	}
	m.Issue(Cmd{Kind: CmdACT, Bank: bank, Row: row}, now)
	pre := now + tm.TRAS
	for !m.CanIssue(Cmd{Kind: CmdPRE, Bank: bank}, pre) {
		pre++
	}
	m.Issue(Cmd{Kind: CmdPRE, Bank: bank}, pre)
	return pre + 1
}
