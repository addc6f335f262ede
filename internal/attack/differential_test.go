package attack

import (
	"reflect"
	"testing"

	"pracsim/internal/dram"
	"pracsim/internal/memctrl"
	"pracsim/internal/mitigation"
	"pracsim/internal/sim"
	"pracsim/internal/ticks"
)

// attackTrace is one request pattern whose timing PRACLeak measures.
type attackTrace struct {
	name   string
	nbo    int
	nmit   int // PRAC level; 0 keeps the default of 1
	policy func(dram.Config) (mitigation.Policy, error)
	run    ticks.T // simulated time; 0 = 40us
	// start wires the attack into env and returns the probers whose
	// samples are compared, plus an optional hook to run between the 1us
	// Run calls the trace is driven in, as the covert channels' receive
	// loops do.
	start func(t *testing.T, env *Env) (probers []*Prober, between func())
}

// traceResult is everything a trace exposes that clocking must not change.
type traceResult struct {
	Samples [][]Sample
	Ctrl    memctrl.Stats
	DRAM    dram.Stats
}

func runAttackTrace(t *testing.T, tc attackTrace, clock sim.Clocking) traceResult {
	t.Helper()
	dcfg := dram.DefaultConfig(tc.nbo)
	dcfg.Org.Rows = 1024
	if tc.nmit > 0 {
		dcfg.PRAC.NMit = tc.nmit
	}
	var policy mitigation.Policy
	if tc.policy != nil {
		p, err := tc.policy(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		policy = p
	}
	env, err := NewEnvWithClock(dcfg, memctrl.DefaultConfig(), policy, clock)
	if err != nil {
		t.Fatal(err)
	}
	probers, between := tc.start(t, env)
	run := tc.run
	if run == 0 {
		run = ticks.FromUS(40)
	}
	for env.Eng.Now() < run {
		env.Run(min(env.Eng.Now()+ticks.FromUS(1), run))
		if between != nil {
			between()
		}
	}
	res := traceResult{Ctrl: env.Ctrl.Stats(), DRAM: env.Mod.Stats()}
	for _, p := range probers {
		p.Stop()
		res.Samples = append(res.Samples, p.Samples)
	}
	return res
}

// hammerAndProbe starts a paced prober in bank 0 and a hammerer on bank
// 1 with the given decoys, performing n target activations.
func hammerAndProbe(decoys []int, n int) func(t *testing.T, env *Env) ([]*Prober, func()) {
	return func(t *testing.T, env *Env) ([]*Prober, func()) {
		prober, err := NewProber(env, 0, []int{7}, ticks.FromNS(200))
		if err != nil {
			t.Fatal(err)
		}
		hammer, err := NewHammerer(env, 1, 42, decoys)
		if err != nil {
			t.Fatal(err)
		}
		prober.Start()
		if err := hammer.Hammer(n, nil); err != nil {
			t.Fatal(err)
		}
		return []*Prober{prober}, nil
	}
}

// TestAttackTraceDifferential is the attack-side half of the clocking
// contract: hammering senders plus latency probers — the request patterns
// whose timing PRACLeak measures — must observe identical sample streams
// and device activity whether the controller ticks every cycle or sleeps
// until its next command can become legal. The cases cover ABO alerts at
// PRAC levels 1 and 4, TB-RFMs (channel-wide and per-bank), refresh
// blackouts under a long multi-decoy hammer, requests that arrive between
// two Run calls, and an AES-style round-robin probe across a victim's hot
// row with a watcher in another rank.
func TestAttackTraceDifferential(t *testing.T) {
	cases := []attackTrace{
		{name: "abo", nbo: 128, start: hammerAndProbe([]int{43, 44}, 200)},
		{name: "prac4", nbo: 128, nmit: 4, start: hammerAndProbe([]int{43, 44}, 300)},
		{
			name: "tprac", nbo: 128,
			policy: func(dram.Config) (mitigation.Policy, error) { return mitigation.NewTPRAC(ticks.FromUS(3), false) },
			start:  hammerAndProbe([]int{43, 44}, 200),
		},
		{
			name: "tprac-pb", nbo: 128,
			policy: func(d dram.Config) (mitigation.Policy, error) {
				return mitigation.NewTPRACPerBank(ticks.FromUS(8), d.Org.Banks())
			},
			start: hammerAndProbe([]int{43, 44}, 200),
		},
		{name: "multi-decoy-refresh", nbo: 1 << 20, start: hammerAndProbe([]int{43, 44, 45, 46, 47, 48}, 600)},
		{
			// Requests enqueued between Run calls, at a timestep the last
			// Run already finished, as the count channel's receiver and
			// the AES probe loop issue them.
			name: "between-runs", nbo: 128,
			start: func(t *testing.T, env *Env) ([]*Prober, func()) {
				prober, err := NewProber(env, 40, []int{1}, 0)
				if err != nil {
					t.Fatal(err)
				}
				hammer, err := NewHammerer(env, 3, 42, rowPool(100, 64, 42))
				if err != nil {
					t.Fatal(err)
				}
				prober.Start()
				return []*Prober{prober}, func() {
					if !hammer.Active() {
						_ = hammer.Hammer(5, nil)
					}
				}
			},
		},
		{
			name: "aes-round-robin", nbo: 32, run: ticks.FromUS(80),
			start: func(t *testing.T, env *Env) ([]*Prober, func()) {
				rows := make([]int, 16)
				for i := range rows {
					rows[i] = tableRow(0, i)
				}
				probe, err := NewProber(env, victimBank, rows, 0)
				if err != nil {
					t.Fatal(err)
				}
				watcher, err := NewProber(env, 37, []int{1}, 0)
				if err != nil {
					t.Fatal(err)
				}
				victim, err := NewHammerer(env, victimBank, rows[5], []int{rows[6]})
				if err != nil {
					t.Fatal(err)
				}
				watcher.Start()
				if err := victim.Hammer(20, probe.Start); err != nil {
					t.Fatal(err)
				}
				return []*Prober{probe, watcher}, nil
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			demand := runAttackTrace(t, tc, sim.ClockDemand)
			perCycle := runAttackTrace(t, tc, sim.ClockPerCycle)
			for i := range demand.Samples {
				if len(demand.Samples[i]) == 0 {
					t.Fatalf("prober %d recorded no samples", i)
				}
				diffSamples(t, i, demand.Samples[i], perCycle.Samples[i])
			}
			if demand.Ctrl != perCycle.Ctrl {
				t.Errorf("controller stats diverge:\ndemand    %+v\nper-cycle %+v", demand.Ctrl, perCycle.Ctrl)
			}
			if demand.DRAM != perCycle.DRAM {
				t.Errorf("DRAM stats diverge:\ndemand    %+v\nper-cycle %+v", demand.DRAM, perCycle.DRAM)
			}
		})
	}
}

// diffSamples fails at the first sample where the two streams diverge.
func diffSamples(t *testing.T, prober int, demand, perCycle []Sample) {
	t.Helper()
	if reflect.DeepEqual(demand, perCycle) {
		return
	}
	n := min(len(demand), len(perCycle))
	for i := 0; i < n; i++ {
		if demand[i] != perCycle[i] {
			t.Fatalf("prober %d sample %d diverges: demand %+v vs per-cycle %+v (lens %d/%d)",
				prober, i, demand[i], perCycle[i], len(demand), len(perCycle))
		}
	}
	t.Fatalf("prober %d sample counts diverge: demand %d vs per-cycle %d", prober, len(demand), len(perCycle))
}

// TestQuietPhaseElision pins the attack-side win: a paced prober leaves
// the controller idle most of the time, and the demand clock must skip
// those quiet cycles.
func TestQuietPhaseElision(t *testing.T) {
	dcfg := dram.DefaultConfig(1024)
	dcfg.Org.Rows = 1024
	env, err := NewEnv(dcfg, memctrl.DefaultConfig(), mitigation.NewABOOnly())
	if err != nil {
		t.Fatal(err)
	}
	prober, err := NewProber(env, 0, []int{3}, ticks.FromUS(1)) // 1us pacing: mostly idle
	if err != nil {
		t.Fatal(err)
	}
	prober.Start()
	env.Run(ticks.FromUS(100))
	prober.Stop()
	total := int64(env.Eng.Now() / memctrl.CyclePeriod)
	elided := env.ElidedCycles()
	if elided == 0 {
		t.Fatal("paced probing elided no controller cycles")
	}
	if elided*2 < total {
		t.Errorf("elided %d of %d controller cycles, want at least half on a paced probe", elided, total)
	}
}
