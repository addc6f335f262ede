// Package pracsim is a cycle-level reproduction of "When Mitigations
// Backfire: Timing Channel Attacks and Defense for PRAC-Based RowHammer
// Mitigations" (ISCA 2025): a DDR5 + PRAC memory-system simulator, the
// PRACLeak covert- and side-channel attacks, and the TPRAC defense.
//
// The package is a facade: it re-exports the library's stable API from the
// internal implementation packages.
//
//   - System simulation: DefaultSystemConfig, NewSystem, Run — a 4-core
//     out-of-order machine over a PRAC-enabled DDR5 channel.
//   - Attacks: RunActivityChannel, RunCountChannel, RunAESAttack,
//     RunCharacterization — the paper's Section 3.
//   - Defense analysis: AnalysisParams, SolveWindow, TMax — Section 4.2.
//   - Experiments: the Run* functions reproducing every evaluation table
//     and figure (package internal/exp re-exported one-to-one).
package pracsim

import (
	"pracsim/internal/analysis"
	"pracsim/internal/attack"
	"pracsim/internal/dram"
	"pracsim/internal/exp"
	"pracsim/internal/exp/journal"
	"pracsim/internal/exp/service"
	"pracsim/internal/exp/shard"
	"pracsim/internal/exp/store"
	storeserver "pracsim/internal/exp/store/server"
	"pracsim/internal/fault"
	"pracsim/internal/httpd"
	"pracsim/internal/mitigation"
	"pracsim/internal/retry"
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
	// SessionOptions attaches the cross-process scaling layers to a
	// session: a persistent content-addressed run store, a shard spec
	// for multi-machine grids, and a crash-recovery run journal.
	SessionOptions = exp.SessionOptions
	// RunJournal is the append-only crash-recovery session journal:
	// completed runs, exports and finished experiments recorded
	// durably so an interrupted invocation resumes instead of rerunning.
	RunJournal = journal.Journal
	// JournalOptions configures a journal (schema, session fingerprint,
	// fsync batching).
	JournalOptions = journal.Options
	// JournalRecovery reports what opening a journal replayed, truncated
	// or rotated.
	JournalRecovery = journal.Recovery
	// JournalStats counts journal traffic (replayed, resume hits,
	// appended, torn-tail bytes, syncs).
	JournalStats = journal.Stats
	// RunStore is the persistent, content-addressed run store: a
	// counting, degrade-to-miss front over a StoreBackend.
	RunStore = store.Store
	// StoreBackend is one run-store storage implementation — disk
	// directory, pracstored client, or tiered (local cache over remote).
	StoreBackend = store.Backend
	// StoreEntryInfo describes one stored entry (Stat/List).
	StoreEntryInfo = store.Info
	// StoreStats counts store traffic, including the remote leg's.
	StoreStats = store.Stats
	// DiskStore is the local-directory backend.
	DiskStore = store.Disk
	// HTTPStore is the pracstored client backend.
	HTTPStore = store.HTTP
	// TieredStore layers a local read-through cache over a remote.
	TieredStore = store.Tiered
	// StoreServer serves a disk store over HTTP (cmd/pracstored).
	StoreServer = storeserver.Server
	// StoreServerOptions configures a StoreServer (auth token, log).
	StoreServerOptions = storeserver.Options
	// StoreInfoReport is the maintenance summary (tpracsim -store-info).
	StoreInfoReport = store.InfoReport
	// DiskStoreOptions tunes the disk backend's lifecycle: the eviction
	// disk budget and the orphaned-temp-file sweep threshold.
	DiskStoreOptions = store.DiskOptions
	// StoreOptions combines per-tier tuning for ResolveRunStoreFull:
	// disk lifecycle options plus the remote failure policy.
	StoreOptions = store.Options
	// StoreEvictionStats snapshots the budget/eviction counters
	// (footprint, evicted entries and bytes, sweeps).
	StoreEvictionStats = store.EvictionStats
	// ShardSpec selects one deterministic shard of a partitioned grid.
	ShardSpec = shard.Spec
	// HTTPStoreOptions tunes the pracstored client's failure policy:
	// per-attempt deadline, attempt budget, backoff base, breaker
	// cooldown.
	HTTPStoreOptions = store.HTTPOptions
	// FaultPlan is a parsed deterministic fault schedule (chaos testing).
	FaultPlan = fault.Plan
	// FaultAction is one injected fault a failpoint returned.
	FaultAction = fault.Action
	// RetryPolicy is the pipeline's unified retry/backoff/deadline
	// policy: capped exponential backoff with deterministic jitter and
	// per-attempt context deadlines.
	RetryPolicy = retry.Policy
)

var (
	// NewExpRunner returns an experiment session for a scale.
	NewExpRunner = exp.NewRunner
	// NewExpRunnerWith returns a session with a persistent store
	// and/or shard spec attached.
	NewExpRunnerWith = exp.NewRunnerWith
	// OpenRunStore opens (creating if needed) a run store directory.
	OpenRunStore = store.Open
	// NewRunStore wraps any StoreBackend in the counting front.
	NewRunStore = store.NewStore
	// OpenDiskStore opens the local-directory backend.
	OpenDiskStore = store.OpenDisk
	// OpenDiskStoreWith opens the disk backend with lifecycle options
	// (eviction budget, temp-sweep age).
	OpenDiskStoreWith = store.OpenDiskWith
	// OpenHTTPStore opens a pracstored client backend for a base URL.
	OpenHTTPStore = store.OpenHTTP
	// NewTieredStore layers a local cache backend over a remote one.
	NewTieredStore = store.NewTiered
	// ResolveRunStore resolves a -store argument (dir, URL, auto, off)
	// into an opened store — the CLIs' single entry point.
	ResolveRunStore = store.ResolveBackend
	// ResolveRunStoreWith is ResolveRunStore with an explicit remote
	// failure policy (timeouts, retries, breaker cooldown).
	ResolveRunStoreWith = store.ResolveBackendWith
	// ResolveRunStoreFull is ResolveRunStore with the full option
	// surface — disk lifecycle (eviction budget) plus remote policy.
	ResolveRunStoreFull = store.Resolve
	// ParseByteSize parses human-readable sizes ("512MB", "2GB") for
	// the -store-budget / -budget flags.
	ParseByteSize = store.ParseByteSize
	// ListStoreEntries streams a backend's entries without
	// materializing the full listing (million-entry-store maintenance).
	ListStoreEntries = store.ListEach
	// OpenHTTPStoreWith opens a pracstored client with an explicit
	// failure policy.
	OpenHTTPStoreWith = store.OpenHTTPWith
	// ParseFaultSchedule parses a fault-schedule spec string
	// ('seed=7;store.http.get:err@0.2;...') into a FaultPlan.
	ParseFaultSchedule = fault.Parse
	// EnableFaults activates a FaultPlan process-wide; EnableFaults(nil)
	// via DisableFaults turns injection off.
	EnableFaults = fault.Enable
	// DisableFaults deactivates fault injection.
	DisableFaults = fault.Disable
	// RetryPermanent marks an error as not-retryable under a RetryPolicy.
	RetryPermanent = retry.Permanent
	// NewStoreServer builds the pracstored HTTP handler over a disk
	// backend.
	NewStoreServer = storeserver.New
	// CollectStoreInfo summarizes a backend's contents (-store-info).
	CollectStoreInfo = store.Collect
	// PruneStore deletes entries from orphaned schema versions.
	PruneStore = store.Prune
	// DefaultRunStoreDir is the user-cache-dir store location.
	DefaultRunStoreDir = store.DefaultDir
	// ParseShard reads an "i/n" shard spec.
	ParseShard = shard.Parse
	// OpenJournal opens (recovering if present) a crash-recovery session
	// journal at a path.
	OpenJournal = journal.Open
	// JournalFingerprint condenses session-defining arguments into the
	// fingerprint a journal is keyed by.
	JournalFingerprint = journal.Fingerprint

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

// Experiment service (cmd/pracsimd): experiments as a multi-tenant job
// queue — grid specs submitted over HTTP, run keys deduped against the
// store, shard work items leased to pull workers, progress streamed
// over SSE, and the whole queue journal-backed so a killed daemon
// restarts with zero re-executed runs.
type (
	// ExpService is the pracsimd HTTP daemon: job API, dedup queue,
	// lease protocol, SSE streams and result serving in one handler.
	ExpService = service.Server
	// ExpServiceOptions configures an ExpService (scales, tokens,
	// quotas, lease TTL, journal path, store).
	ExpServiceOptions = service.Options
	// ExpGridSpec is a submitted job: experiments × scale × shards ×
	// priority, validated against tpracsim's flag grammar.
	ExpGridSpec = service.GridSpec
	// ExpJobStatus is a job's live status snapshot (state, progress,
	// executed-run and warm-key counts, results).
	ExpJobStatus = service.JobStatus
	// ExpServiceClient is the typed client for the pracsimd job and
	// worker APIs (used by tpracsim -pull).
	ExpServiceClient = service.Client
	// ExpServiceRestore reports what a restarting daemon adopted from
	// its queue journal (jobs, acked items, requeued items).
	ExpServiceRestore = service.RestoreSummary
	// PullWorkerOptions configures a lease-execute-ack pull worker.
	PullWorkerOptions = service.WorkerOptions
	// PullWorkerSummary is a pull worker's exit accounting (items,
	// runs, executed, failures).
	PullWorkerSummary = service.WorkerSummary
	// AuthTokens is the shared bearer-token set guarding pracstored
	// and pracsimd endpoints.
	AuthTokens = httpd.Tokens
	// HTTPMetrics tracks per-endpoint request counts and latency
	// histograms for a daemon's /metrics page.
	HTTPMetrics = httpd.Metrics
)

var (
	// NewExpService builds the pracsimd daemon, replaying its queue
	// journal if one exists.
	NewExpService = service.New
	// NewExpServiceClient opens a typed client for a pracsimd URL.
	NewExpServiceClient = service.NewClient
	// RunPullWorker leases, executes and acks shard work items from a
	// pracsimd daemon until the context ends (tpracsim -pull).
	RunPullWorker = service.RunWorker
	// ParseAuthTokens parses a comma-separated bearer-token list.
	ParseAuthTokens = httpd.ParseTokens
	// NewHTTPMetrics returns an empty per-endpoint metrics tracker.
	NewHTTPMetrics = httpd.NewMetrics
)

// PolicyTPRACpb is the Section 7.2 per-bank TB-RFM extension.
const PolicyTPRACpb = sim.PolicyTPRACpb

// NewTPRACPerBankPolicy builds the per-bank Timing-Based RFM policy.
var NewTPRACPerBankPolicy = mitigation.NewTPRACPerBank
