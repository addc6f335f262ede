package attack

import (
	"fmt"

	"pracsim/internal/dram"
	"pracsim/internal/memctrl"
	"pracsim/internal/ticks"
)

// CharacterizeConfig parameterizes the Figure 3 experiment: how visible is
// an Alert Back-Off to a concurrent memory-latency observer, as the PRAC
// level (RFMs per ABO) varies.
type CharacterizeConfig struct {
	NBO      int     // Back-Off threshold (paper: 256)
	NMit     int     // PRAC level: 1, 2 or 4; 0 disables ABO ("No ABO" panel)
	Duration ticks.T // observation window (paper: 2 ms)
}

// CharacterizeResult carries the Figure 3 series for one PRAC level.
type CharacterizeResult struct {
	NMit            int
	Samples         []Sample
	BaselineLatency ticks.T // median probe latency
	SpikeLatency    ticks.T // mean latency of ABO-coincident probes
	Spikes          int
	ABOs            int64
}

// RunCharacterization measures an attacker's probe latency while a victim
// hammers a row past NBO in another bank, reproducing Figure 3's panels.
func RunCharacterization(cfg CharacterizeConfig) (CharacterizeResult, error) {
	if cfg.Duration <= 0 {
		return CharacterizeResult{}, fmt.Errorf("attack: duration must be positive")
	}
	nbo := cfg.NBO
	if nbo <= 0 {
		nbo = 256
	}
	res := CharacterizeResult{NMit: cfg.NMit}

	dcfg := dram.DefaultConfig(nbo)
	hammerBudget := nbo
	if cfg.NMit == 0 {
		// "No ABO": same victim activity, Alert disabled.
		dcfg.PRAC.NBO = 1 << 30
	} else {
		dcfg.PRAC.NMit = cfg.NMit
	}
	env, err := NewEnv(dcfg, memctrl.DefaultConfig(), nil)
	if err != nil {
		return CharacterizeResult{}, err
	}
	defer env.recycle()

	// Attacker: open-page probe in a different bank from the victim,
	// plus a watcher in another rank so RFM spikes can be told apart
	// from per-rank refresh spikes.
	probe, err := NewProber(env, 7, []int{3}, ticks.FromNS(100))
	if err != nil {
		return CharacterizeResult{}, err
	}
	probe.Start()
	// The watcher is read only for spikes above the probe's baseline +
	// 250 ns. That baseline is known only after the run, but it is never
	// negative, so the watcher keeps nothing at or below 250 ns.
	watcher, err := NewProber(env, 37, []int{3}, 0)
	if err != nil {
		return CharacterizeResult{}, err
	}
	watcher.KeepSpikesOnly()
	watcher.Start()

	// Victim: repeatedly push a row pair to NBO; each Alert's mitigation
	// resets the hot row, so ABOs recur throughout the window.
	victim, err := NewHammerer(env, 0, 20, []int{21})
	if err != nil {
		return CharacterizeResult{}, err
	}
	var loop func()
	loop = func() {
		if err := victim.Hammer(hammerBudget, func() {
			env.Eng.After(ticks.FromUS(2), func(ticks.T) { loop() })
		}); err != nil {
			return
		}
	}
	loop()

	env.Run(cfg.Duration)
	probe.Stop()
	watcher.Stop()
	res.Samples = probe.Samples
	res.ABOs = env.Mod.Stats().AlertsAsserted

	if len(res.Samples) == 0 {
		return res, fmt.Errorf("attack: probe collected no samples")
	}
	res.BaselineLatency = probe.Median()

	det := &CoincidenceDetector{
		ThrA:   res.BaselineLatency + spikeMargin,
		ThrB:   res.BaselineLatency + spikeMargin,
		Window: ticks.FromNS(600),
	}
	var sum ticks.T
	for _, s := range res.Samples {
		// Only channel-wide blocking (an RFM) delays both ranks at
		// once; rank-local refresh spikes are excluded from the
		// ABO-latency average.
		if s.Latency > det.ThrA && det.HasCoincident(watcher.Samples, s.At) {
			res.Spikes++
			sum += s.Latency
		}
	}
	if res.Spikes > 0 {
		res.SpikeLatency = sum / ticks.T(res.Spikes)
	}
	return res, nil
}
