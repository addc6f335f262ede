package attack

import (
	"reflect"
	"testing"

	"pracsim/internal/dram"
	"pracsim/internal/memctrl"
	"pracsim/internal/mitigation"
	"pracsim/internal/spare"
	"pracsim/internal/ticks"
)

func newTestEnv(t *testing.T, nbo int) *Env {
	t.Helper()
	env, err := NewEnv(dram.DefaultConfig(nbo), memctrl.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestProberCollectsStableLatency(t *testing.T) {
	env := newTestEnv(t, 1<<20)
	p, err := NewProber(env, 3, []int{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	env.Run(ticks.FromUS(20))
	p.Stop()
	if len(p.Samples) < 100 {
		t.Fatalf("collected %d samples, want hundreds", len(p.Samples))
	}
	// Open-page probing: most samples are fast row hits.
	fast := 0
	for _, s := range p.Samples {
		if s.Latency < ticks.FromNS(100) {
			fast++
		}
	}
	if fast < len(p.Samples)*8/10 {
		t.Errorf("only %d/%d samples are fast row hits", fast, len(p.Samples))
	}
}

func TestHammererCountsActivations(t *testing.T) {
	env := newTestEnv(t, 1<<20)
	h, err := NewHammerer(env, 0, 5, []int{6})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	if err := h.Hammer(50, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	env.Run(ticks.FromUS(50))
	if !done {
		t.Fatal("hammer did not finish")
	}
	if got := env.Mod.RowCounter(0, 5); got != 50 {
		t.Fatalf("target PRAC counter = %d, want 50", got)
	}
}

func TestHammerTriggersAlertAtNBO(t *testing.T) {
	env := newTestEnv(t, 64)
	h, err := NewHammerer(env, 0, 5, []int{6})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Hammer(64, nil); err != nil {
		t.Fatal(err)
	}
	env.Run(ticks.FromUS(60))
	if env.Mod.Stats().AlertsAsserted == 0 {
		t.Fatal("hammering to NBO raised no Alert")
	}
	if env.Ctrl.Stats().ABORFMs == 0 {
		t.Fatal("Alert was not serviced with an RFM")
	}
}

func TestProberSeesRFMSpike(t *testing.T) {
	env := newTestEnv(t, 128)
	p, err := NewProber(env, 7, []int{2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	h, err := NewHammerer(env, 0, 5, []int{6})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Hammer(130, nil); err != nil {
		t.Fatal(err)
	}
	env.Run(ticks.FromUS(80))
	p.Stop()
	maxLat := ticks.T(0)
	for _, s := range p.Samples {
		if s.Latency > maxLat {
			maxLat = s.Latency
		}
	}
	if maxLat < ticks.FromNS(300) {
		t.Fatalf("max probe latency %v; cross-bank RFM spike not visible", maxLat)
	}
}

func TestDetectorFiltersRefreshSpikes(t *testing.T) {
	env := newTestEnv(t, 1<<20) // no ABO possible
	p, err := NewProber(env, 7, []int{2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	env.Run(ticks.FromUS(60)) // several tREFI periods
	p.Stop()
	half := len(p.Samples) / 2
	det, err := CalibrateDetector(p.Samples[:half], env.Mod.Config().Timing.TREFI)
	if err != nil {
		t.Fatal(err)
	}
	// Refresh spikes exist in the second half but none may classify as
	// signal.
	spikes, signals := 0, 0
	for _, s := range p.Samples[half:] {
		if det.IsSpike(s) {
			spikes++
		}
		if det.IsSignal(s) {
			signals++
		}
	}
	if spikes == 0 {
		t.Fatal("no refresh spikes observed; probe window too short")
	}
	if signals != 0 {
		t.Fatalf("%d refresh spikes misclassified as signal", signals)
	}
}

func TestDetectorValidation(t *testing.T) {
	if _, err := CalibrateDetector(nil, ticks.FromUS(1)); err == nil {
		t.Error("empty calibration accepted")
	}
	if _, err := CalibrateDetector([]Sample{{}}, 0); err == nil {
		t.Error("zero tREFI accepted")
	}
}

func TestActivityChannelTransmitsBits(t *testing.T) {
	res, err := RunActivityChannel(ActivityConfig{
		NBO:  256,
		Bits: []bool{true, false, true, true, false, false, true, false},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("activity channel errors = %d/%d (sent %v, got %v)",
			res.Errors, res.Symbols, res.SentValues, res.DecodedVals)
	}
	if res.BitrateKbps < 5 {
		t.Errorf("bitrate = %.1f Kbps, implausibly low", res.BitrateKbps)
	}
	if res.AlertsRaised == 0 {
		t.Error("no alerts raised; channel cannot have used ABO")
	}
}

func TestActivityChannelBitrateFallsWithNBO(t *testing.T) {
	bits := []bool{true, false, true, false}
	small, err := RunActivityChannel(ActivityConfig{NBO: 256, Bits: bits})
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunActivityChannel(ActivityConfig{NBO: 1024, Bits: bits})
	if err != nil {
		t.Fatal(err)
	}
	if large.BitrateKbps >= small.BitrateKbps {
		t.Errorf("bitrate at NBO=1024 (%.1f) not below NBO=256 (%.1f)",
			large.BitrateKbps, small.BitrateKbps)
	}
}

func TestCountChannelTransmitsValues(t *testing.T) {
	res, err := RunCountChannel(CountConfig{
		NBO:    256,
		Values: []int{17, 50, 3, 22, 32, 13},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 1 { // one symbol may straddle a tREFW counter reset
		t.Fatalf("count channel errors = %d/%d (sent %v, got %v)",
			res.Errors, res.Symbols, res.SentValues, res.DecodedVals)
	}
	if res.BitsPerSym != 6 {
		t.Errorf("bits per symbol = %.0f, want 6 (log2 NBO minus 2 guard bits)", res.BitsPerSym)
	}
}

func TestCountChannelOutpacesActivityChannel(t *testing.T) {
	act, err := RunActivityChannel(ActivityConfig{NBO: 256, NumBits: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := RunCountChannel(CountConfig{NBO: 256, NumVals: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cnt.BitrateKbps <= act.BitrateKbps {
		t.Errorf("count-channel bitrate %.1f <= activity %.1f; paper's Table 2 ordering violated",
			cnt.BitrateKbps, act.BitrateKbps)
	}
}

func TestCountChannelRejectsBadValues(t *testing.T) {
	if _, err := RunCountChannel(CountConfig{NBO: 256, Values: []int{600}}); err == nil {
		t.Error("out-of-range value accepted")
	}
	if _, err := RunCountChannel(CountConfig{NBO: 32, GuardBits: 4}); err == nil {
		t.Error("guard bits eating the whole symbol space accepted")
	}
	if _, err := RunCountChannel(CountConfig{NBO: 0}); err == nil {
		t.Error("zero NBO accepted")
	}
}

func TestAESAttackRecoversKeyNibble(t *testing.T) {
	key := []byte{0x7a, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	res, err := RunAESAttack(AESConfig{
		Key:         key,
		TargetByte:  0,
		Plaintext:   0x00,
		Encryptions: 200,
		NBO:         256,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatalf("attack missed: recovered row %d, true row %d", res.RecoveredRow, res.TrueRow)
	}
	if res.RecoveredNib != 0x7 {
		t.Fatalf("recovered nibble %#x, want 0x7", res.RecoveredNib)
	}
	// Victim's hot row must dominate (about 2x the others, Figure 4).
	hot := res.VictimRowActs[res.TrueRow]
	for r, c := range res.VictimRowActs {
		if r != res.TrueRow && c >= hot {
			t.Errorf("row %d activations %d >= hot row %d", r, c, hot)
		}
	}
	// Total victim+attacker activations on the hot row reach NBO exactly
	// (Figure 5b's invariant), modulo the ABOACT allowance.
	total := int(hot) + res.AttackerCount
	if total < 250 || total > 262 {
		t.Errorf("victim+attacker activations = %d, want about NBO=256", total)
	}
}

// TestRecycledEnvMatchesFresh: an attack runner hands its controller
// and module to the spares when it returns, and the same attack run
// again on that storage reports exactly the same result, samples and
// probe order included.
func TestRecycledEnvMatchesFresh(t *testing.T) {
	cfg := AESConfig{
		Key:         []byte{0x3c, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		Encryptions: 100,
		NBO:         256,
		Seed:        5,
	}
	first, err := RunAESAttack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	held := spare.Held()
	if held["memctrl"] == 0 || held["dram.banks"] == 0 {
		t.Fatalf("spares after an attack: %v, want its controller and banks", held)
	}
	second, err := RunAESAttack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after := spare.Held(); after["memctrl"] != held["memctrl"] || after["dram.banks"] != held["dram.banks"] {
		t.Errorf("spares %v after a second serial attack, want %v", after, held)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("attack on recycled storage differs: row %d count %d, fresh row %d count %d",
			second.SpikeRow, second.AttackerCount, first.SpikeRow, first.AttackerCount)
	}
}

func TestAESAttackDifferentKeysDifferentRows(t *testing.T) {
	rows := map[int]bool{}
	for _, k0 := range []byte{0x00, 0x40, 0x90, 0xf0} {
		key := make([]byte, 16)
		key[0] = k0
		res, err := RunAESAttack(AESConfig{
			Key: key, TargetByte: 0, Plaintext: 0,
			Encryptions: 120, NBO: 256, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Hit {
			t.Errorf("k0=%#x: missed (got row %d, want %d)", k0, res.RecoveredRow, res.TrueRow)
		}
		rows[res.RecoveredRow] = true
	}
	if len(rows) != 4 {
		t.Errorf("four distinct key nibbles mapped to %d rows", len(rows))
	}
}

func TestTPRACDefeatsAESAttack(t *testing.T) {
	key := make([]byte, 16)
	key[0] = 0x7a
	cfg := AESConfig{
		Key: key, TargetByte: 0, Plaintext: 0,
		Encryptions: 200, NBO: 256, Seed: 11,
		Defense: func() (mitigation.Policy, error) {
			// One TB-RFM per 0.25 tREFI: ample for NBO=256.
			return mitigation.NewTPRAC(ticks.FromNS(975), false)
		},
	}
	res, err := RunAESAttack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ABORFMs != 0 {
		t.Fatalf("TPRAC run produced %d ABO RFMs, want 0", res.ABORFMs)
	}
	if res.TotalRFMs == 0 {
		t.Fatal("TPRAC issued no TB-RFMs")
	}
}

func TestCharacterizationSpikesScaleWithPRACLevel(t *testing.T) {
	base, err := RunCharacterization(CharacterizeConfig{NBO: 256, NMit: 0, Duration: ticks.FromUS(150)})
	if err != nil {
		t.Fatal(err)
	}
	if base.ABOs != 0 {
		t.Fatalf("no-ABO run raised %d alerts", base.ABOs)
	}
	one, err := RunCharacterization(CharacterizeConfig{NBO: 256, NMit: 1, Duration: ticks.FromUS(150)})
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunCharacterization(CharacterizeConfig{NBO: 256, NMit: 4, Duration: ticks.FromUS(150)})
	if err != nil {
		t.Fatal(err)
	}
	if one.ABOs == 0 || four.ABOs == 0 {
		t.Fatalf("ABO counts = %d/%d, want non-zero", one.ABOs, four.ABOs)
	}
	if four.SpikeLatency <= one.SpikeLatency {
		t.Errorf("PRAC-4 spike latency %v not above PRAC-1 %v", four.SpikeLatency, one.SpikeLatency)
	}
	if one.SpikeLatency < ticks.FromNS(350) {
		t.Errorf("PRAC-1 spike latency %v below one tRFMab", one.SpikeLatency)
	}
}

func TestEnvValidation(t *testing.T) {
	if _, err := NewProber(newTestEnv(t, 64), 0, nil, 0); err == nil {
		t.Error("prober with no rows accepted")
	}
	env := newTestEnv(t, 64)
	if _, err := NewHammerer(env, 0, 5, nil); err == nil {
		t.Error("hammerer with no decoys accepted")
	}
	if _, err := NewHammerer(env, 0, 5, []int{5}); err == nil {
		t.Error("decoy equal to target accepted")
	}
	h, _ := NewHammerer(env, 0, 5, []int{6})
	_ = h.Hammer(10, nil)
	if err := h.Hammer(10, nil); err == nil {
		t.Error("double hammer accepted")
	}
}

// TestRetryAtAlignsToControllerGrid: a refused access deferred through
// RetryAt must land on the controller's next cycle slot — strictly after
// now, never off-grid — whether now is grid-aligned or not.
func TestRetryAtAlignsToControllerGrid(t *testing.T) {
	env := newTestEnv(t, 1<<20)
	for _, offset := range []ticks.T{0, 1, 3, memctrl.CyclePeriod, memctrl.CyclePeriod + 2} {
		env.Run(env.Eng.Now() + memctrl.CyclePeriod) // make room to advance
		target := env.Eng.Now() + offset
		var firedAt ticks.T = -1
		env.Eng.At(target, func(ticks.T) {
			env.RetryAt(func() { firedAt = env.Eng.Now() })
		})
		env.Run(target + 4*memctrl.CyclePeriod)
		if firedAt < 0 {
			t.Fatalf("offset %d: retry never fired", offset)
		}
		if firedAt <= target || firedAt%memctrl.CyclePeriod != 0 {
			t.Errorf("offset %d: retry fired at %d (refused at %d) — not the next grid slot", offset, firedAt, target)
		}
		if firedAt-target > memctrl.CyclePeriod {
			t.Errorf("offset %d: retry fired %d ticks late", offset, firedAt-target)
		}
	}
}
