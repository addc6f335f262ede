// Package pracsim is a cycle-level reproduction of "When Mitigations
// Backfire: Timing Channel Attacks and Defense for PRAC-Based RowHammer
// Mitigations" (ISCA 2025): a DDR5 + PRAC memory-system simulator, the
// PRACLeak covert- and side-channel attacks, and the TPRAC defense.
//
// The package is a facade: it re-exports the library's simulation,
// attack, analysis and experiment API from the internal implementation
// packages.
//
//   - System simulation: DefaultSystemConfig, NewSystem, System.Run — a
//     4-core out-of-order machine over a PRAC-enabled DDR5 channel, with
//     the ABO-only, ACB, TPRAC and per-bank TPRAC mitigation policies.
//   - Attacks: RunActivityChannel, RunCountChannel, RunAESAttack,
//     RunCharacterization — the paper's Section 3.
//   - Defense analysis: AnalysisParams, RunEmpiricalFeinting — Section
//     4.2.
//   - Experiments: Scale, ExpRunner and the Run* functions reproducing
//     every evaluation table and figure.
//
// The experiment infrastructure — the run store, queue journal,
// sharding, fault injection and the pracsimd service — stays internal;
// the commands under cmd/ drive it.
package pracsim

import (
	"pracsim/internal/analysis"
	"pracsim/internal/attack"
	"pracsim/internal/dram"
	"pracsim/internal/exp"
	"pracsim/internal/mitigation"
	"pracsim/internal/sim"
	"pracsim/internal/ticks"
)

// Ticks is the simulation time unit: 250 picoseconds.
type Ticks = ticks.T

// Time helpers.
var (
	FromNS = ticks.FromNS
	FromUS = ticks.FromUS
	FromMS = ticks.FromMS
)

// System simulation.
type (
	// SystemConfig assembles the paper's Table 3 machine.
	SystemConfig = sim.SystemConfig
	// System is an assembled simulated machine.
	System = sim.System
	// RunResult summarizes a measured simulation interval.
	RunResult = sim.RunResult
	// PolicyKind selects the mitigation policy.
	PolicyKind = sim.PolicyKind
)

// Mitigation policies.
const (
	PolicyABOOnly = sim.PolicyABOOnly
	PolicyACB     = sim.PolicyACB
	PolicyTPRAC   = sim.PolicyTPRAC
	PolicyNone    = sim.PolicyNone
)

var (
	// DefaultSystemConfig returns the paper's evaluated system for a
	// Back-Off threshold.
	DefaultSystemConfig = sim.DefaultSystemConfig
	// NewSystem builds and wires a System.
	NewSystem = sim.NewSystem
)

// DRAM device model.
type (
	// DRAMConfig describes one DDR5 channel with PRAC.
	DRAMConfig = dram.Config
	// PRACSpec configures per-row activation counting and Alert Back-Off.
	PRACSpec = dram.PRACSpec
)

// Policy is the memory-controller-side proactive RFM policy interface.
type Policy = mitigation.Policy

var (
	// DefaultDRAMConfig returns the paper's 32Gb DDR5-8000B device.
	DefaultDRAMConfig = dram.DefaultConfig
	// NewTPRACPolicy builds the Timing-Based RFM policy directly.
	NewTPRACPolicy = mitigation.NewTPRAC
)

// PRACLeak attacks (Section 3).
type (
	// ActivityConfig parameterizes the activity-based covert channel.
	ActivityConfig = attack.ActivityConfig
	// CountConfig parameterizes the activation-count covert channel.
	CountConfig = attack.CountConfig
	// ChannelResult summarizes a covert-channel transmission.
	ChannelResult = attack.ChannelResult
	// AESConfig parameterizes the AES T-table side-channel attack.
	AESConfig = attack.AESConfig
	// AESResult reports one side-channel attack instance.
	AESResult = attack.AESResult
	// CharacterizeConfig parameterizes the Figure 3 latency study.
	CharacterizeConfig = attack.CharacterizeConfig
)

var (
	// RunActivityChannel executes the activity-based covert channel.
	RunActivityChannel = attack.RunActivityChannel
	// RunCountChannel executes the activation-count covert channel.
	RunCountChannel = attack.RunCountChannel
	// RunAESAttack executes one AES side-channel attack instance.
	RunAESAttack = attack.RunAESAttack
	// RunAESAttackVoted majority-votes several attack instances.
	RunAESAttackVoted = attack.RunAESAttackVoted
	// RunCharacterization measures ABO-induced latency spikes.
	RunCharacterization = attack.RunCharacterization
)

// TPRAC security analysis (Section 4.2).
type (
	// AnalysisParams holds the Feinting-attack analysis inputs.
	AnalysisParams = analysis.Params
	// EmpiricalConfig drives a live Feinting attack against TPRAC.
	EmpiricalConfig = analysis.EmpiricalConfig
)

var (
	// DefaultAnalysisParams returns the paper's device parameters.
	DefaultAnalysisParams = analysis.DefaultParams
	// RunEmpiricalFeinting validates a TB-Window against the simulator.
	RunEmpiricalFeinting = analysis.RunEmpiricalFeinting
)

// Experiment reproduction (every evaluation table and figure).
type (
	// Scale controls experiment workload and instruction budgets, plus
	// the Workers/Serial scheduling knobs. Experiment grids fan out
	// across GOMAXPROCS goroutines by default; results are assembled
	// by grid position and are bit-identical at any worker count.
	Scale = exp.Scale
	// ExpRunner is a shareable experiment session: experiments run
	// through one session share a worker pool and a single-flight run
	// cache, so identical (variant, workload) simulations execute once.
	ExpRunner = exp.Runner
)

var (
	// NewExpRunner returns an experiment session for a scale.
	NewExpRunner = exp.NewRunner

	// QuickScale is the minutes-scale experiment configuration.
	QuickScale = exp.QuickScale
	// FullScale runs the whole 50-workload catalog.
	FullScale = exp.FullScale

	// RunFig3 reproduces Figure 3 (ABO latency characterization).
	RunFig3 = exp.RunFig3
	// RunTable2 reproduces Table 2 (covert-channel bitrates).
	RunTable2 = exp.RunTable2
	// RunFig4 reproduces Figure 4 (side-channel attack instance).
	RunFig4 = exp.RunFig4
	// RunFig5 reproduces Figure 5 (key-byte sweep).
	RunFig5 = exp.RunFig5
	// RunFig7 reproduces Figure 7 (TMAX analysis + TB-Window solving).
	RunFig7 = exp.RunFig7
	// RunFig9 reproduces Figure 9 (attack with and without TPRAC).
	RunFig9 = exp.RunFig9
	// RunFig10 reproduces Figure 10 (main performance comparison).
	RunFig10 = exp.RunFig10
	// RunFig11 reproduces Figure 11 (PRAC-level sensitivity).
	RunFig11 = exp.RunFig11
	// RunFig12 reproduces Figure 12 (targeted-refresh sensitivity).
	RunFig12 = exp.RunFig12
	// RunFig13 reproduces Figure 13 (RowHammer-threshold sensitivity).
	RunFig13 = exp.RunFig13
	// RunFig14 reproduces Figure 14 (counter-reset sensitivity).
	RunFig14 = exp.RunFig14
	// RunTable5 reproduces Table 5 (energy overhead).
	RunTable5 = exp.RunTable5
	// RunRFMpb evaluates the Section 7.2 per-bank TB-RFM extension.
	RunRFMpb = exp.RunRFMpb
)

// PolicyTPRACpb is the Section 7.2 per-bank TB-RFM extension.
const PolicyTPRACpb = sim.PolicyTPRACpb

// NewTPRACPerBankPolicy builds the per-bank Timing-Based RFM policy.
var NewTPRACPerBankPolicy = mitigation.NewTPRACPerBank
