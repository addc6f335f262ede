// Package attack implements the PRACLeak attacks of Sections 3.1–3.3:
// latency probing, the activity-based and activation-count-based covert
// channels, and the chosen-plaintext AES T-table side channel. It drives
// the memory controller directly with request streams, mirroring the
// paper's Ramulator2 trace methodology (caches are bypassed because the
// attacker flushes shared lines).
package attack

import (
	"fmt"
	"slices"

	"pracsim/internal/dram"
	"pracsim/internal/memctrl"
	"pracsim/internal/mitigation"
	"pracsim/internal/sim"
	"pracsim/internal/ticks"
)

// Env is a memory-only simulation environment: engine + controller + DRAM.
type Env struct {
	Eng    *sim.Engine
	Ctrl   *memctrl.Controller
	Mod    *dram.Module
	mapper memctrl.AddressMapper
	clock  *sim.ControllerClock
}

// NewEnv wires an environment with the given device config and policy.
// A nil policy means ABO-Only (the JEDEC default the attacks target).
// The controller runs demand-clocked: the long quiet phases the attacks
// measure (pacing gaps, refresh windows, backoff intervals) are skipped
// instead of ticked through, with bit-identical timing — see
// NewEnvWithClock and the differential tests.
func NewEnv(dcfg dram.Config, ccfg memctrl.Config, policy mitigation.Policy) (*Env, error) {
	return NewEnvWithClock(dcfg, ccfg, policy, sim.ClockDemand)
}

// NewEnvWithClock is NewEnv with an explicit clocking model, for
// differential tests that pin demand-clocked attacks against the
// per-cycle reference.
func NewEnvWithClock(dcfg dram.Config, ccfg memctrl.Config, policy mitigation.Policy, clock sim.Clocking) (*Env, error) {
	if policy == nil {
		policy = mitigation.NewABOOnly()
	}
	mod, err := dram.New(dcfg)
	if err != nil {
		return nil, err
	}
	// The linear mapper gives attack code direct bank/row placement,
	// matching how attack papers reason about physical addresses.
	mapper, err := memctrl.NewLinearMapper(dcfg.Org)
	if err != nil {
		return nil, err
	}
	ctrl, err := memctrl.New(ccfg, mod, mapper, policy)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	cc := sim.NewControllerClock(eng, ctrl, nil, clock)
	return &Env{Eng: eng, Ctrl: ctrl, Mod: mod, mapper: mapper, clock: cc}, nil
}

// ElidedCycles reports how many controller cycles demand-driven clocking
// has skipped so far — attack-side elision telemetry.
func (e *Env) ElidedCycles() int64 { return e.clock.Elided(e.Eng.Now()) }

// RetryAt schedules fn at the first instant a memory access refused now
// can usefully be retried: the controller's next grid slot. Queue
// capacity only frees when the controller ticks, so retries between
// slots are provably futile — the attack pumps (Prober, Hammerer, the
// covert and side-channel chains) defer refused accesses here instead of
// spinning a per-cycle loop, mirroring the cores' SetRetrySlot hook.
// Retry times are a pure function of engine time, so both clockings
// produce the same schedule (pinned by the differential tests).
func (e *Env) RetryAt(fn func()) {
	e.Eng.At(e.clock.RetrySlot(e.Eng.Now()), func(ticks.T) { fn() })
}

// Line returns the cache-line address of (bank, row, col).
func (e *Env) Line(bank, row, col int) uint64 {
	return e.mapper.Encode(memctrl.Loc{Bank: bank, Row: row, Col: col})
}

// Read enqueues a read; done receives the data-return time. It reports
// false if the controller queue is full.
func (e *Env) Read(bank, row, col int, done func(at ticks.T)) bool {
	return e.Ctrl.Enqueue(&memctrl.Request{
		Line:       e.Line(bank, row, col),
		OnComplete: done,
	}, e.Eng.Now())
}

// Run advances the environment to the given absolute time.
func (e *Env) Run(until ticks.T) { e.Eng.Run(until) }

// recycle hands the controller's queues and tables and the module's
// banks and counter tables to the next environment of the same shape,
// controller first so no queued completion survives. The attack
// runners defer it once they have read their results; the environment
// must not be run again.
func (e *Env) recycle() {
	e.Ctrl.Recycle()
	e.Mod.Recycle()
}

// Sample is one latency measurement taken by a prober.
type Sample struct {
	At      ticks.T // request issue time
	Latency ticks.T
	Row     int // row probed
}

// Prober repeatedly reads rows of one bank and records access latencies —
// the receiver side of every PRACLeak attack. With a single row it probes
// open-page style (row hits, no activation-count growth); with several rows
// it cycles through them, generating one activation per access.
//
// A Prober keeps exactly one request in flight, so Samples is ordered by
// At, and the in-flight request's issue time and row live in fields: the
// completion and reissue funcs are bound once in NewProber, and probing
// allocates nothing per request.
//
// Every sample is counted and added to an exact latency histogram, so
// Median needs no stored samples. By default every sample is also stored;
// after KeepSpikesOnly only samples that can be spikes are.
type Prober struct {
	env  *Env
	bank int
	rows []int
	idx  int
	gap  ticks.T
	stop bool

	arrive   ticks.T // issue time of the request in flight
	row      int     // row of the request in flight
	complete func(at ticks.T)
	reissue  func(ticks.T)

	spikesOnly bool // store only samples with Latency > spikeMargin
	hist       latencyHist
	n          int // every sample taken, stored or not

	Samples []Sample
}

// NewProber builds a prober over the given rows of a bank. gap adds pacing
// between consecutive probes (0 = back-to-back).
func NewProber(env *Env, bank int, rows []int, gap ticks.T) (*Prober, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("attack: prober needs at least one row")
	}
	p := &Prober{
		env:  env,
		bank: bank,
		rows: rows,
		gap:  gap,
	}
	p.complete = p.onComplete
	p.reissue = func(ticks.T) { p.issueNext() }
	return p, nil
}

// KeepSpikesOnly makes the prober store only samples with Latency >
// spikeMargin from now on, and drops the stored samples at or below it.
// Every detector threshold is a median latency + spikeMargin, so Samples
// stays an ordered subsequence of every sample taken that holds each one a
// detector can count as a spike: detectors read exactly what they would
// read from the full log. Median still counts every sample.
func (p *Prober) KeepSpikesOnly() {
	p.spikesOnly = true
	p.Samples = slices.DeleteFunc(p.Samples, func(s Sample) bool { return s.Latency <= spikeMargin })
}

// Median returns the median latency of every sample taken: exactly what
// sorting all N latencies and taking index N/2 gives. It returns 0 before
// the first sample.
func (p *Prober) Median() ticks.T { return p.hist.nth(p.n / 2) }

// Start begins probing; it keeps exactly one request in flight. It must
// not be called while a request from an earlier Start is still in flight.
func (p *Prober) Start() {
	p.stop = false
	p.issueNext()
}

// Stop halts probing after the in-flight request completes.
func (p *Prober) Stop() { p.stop = true }

func (p *Prober) issueNext() {
	if p.stop {
		return
	}
	p.row = p.rows[p.idx%len(p.rows)]
	p.idx++
	p.arrive = p.env.Eng.Now()
	if !p.env.Read(p.bank, p.row, 0, p.complete) {
		p.env.RetryAt(p.issueNext)
	}
}

// onComplete records the in-flight request's sample and schedules the
// next probe one gap after its data returns.
func (p *Prober) onComplete(at ticks.T) {
	lat := at - p.arrive
	p.n++
	p.hist.add(lat)
	if !p.spikesOnly || lat > spikeMargin {
		p.Samples = append(p.Samples, Sample{At: p.arrive, Latency: lat, Row: p.row})
	}
	p.env.Eng.At(at+p.gap, p.reissue)
}

// latencyHist is an exact histogram: the distinct latencies seen, in
// ascending order, with their counts. A probe stream takes few distinct
// latencies, so once the common ones are in, an add is a binary search and
// an increment and allocates nothing.
type latencyHist struct {
	vals   []ticks.T
	counts []int
}

func (h *latencyHist) add(v ticks.T) {
	i, found := slices.BinarySearch(h.vals, v)
	if !found {
		h.vals = slices.Insert(h.vals, i, v)
		h.counts = slices.Insert(h.counts, i, 0)
	}
	h.counts[i]++
}

// nth returns the n-th smallest value added (0-based), or 0 if fewer
// than n+1 values were added.
func (h *latencyHist) nth(n int) ticks.T {
	for i, c := range h.counts {
		if n < c {
			return h.vals[i]
		}
		n -= c
	}
	return 0
}

// Hammerer generates activations on a target row by alternating reads with
// decoy rows in the same bank (guaranteed row-buffer conflicts) — the
// sender side of the attacks. Requests chain at column-command issue time,
// so the PRE/ACT turnaround overlaps the data burst and the activation rate
// stays close to the tRC limit, as in a real hammering loop. Like a
// Prober it keeps one request in flight with its completion func bound
// once, so hammering allocates nothing per request.
type Hammerer struct {
	env    *Env
	bank   int
	target int
	decoys []int
	di     int

	// TargetReads counts target-row reads the controller has serviced;
	// each is one activation (the following decoy access closes the row).
	TargetReads int

	seq         []int // remaining rows to issue, alternating target/decoy
	seqIsTarget []bool
	seqIdx      int
	onDone      func()
	active      bool

	isTarget bool // the request in flight reads the target row
	complete func(ticks.T)
}

// NewHammerer builds a hammerer for (bank, target) using the given decoys.
func NewHammerer(env *Env, bank, target int, decoys []int) (*Hammerer, error) {
	if len(decoys) == 0 {
		return nil, fmt.Errorf("attack: hammerer needs at least one decoy row")
	}
	for _, d := range decoys {
		if d == target {
			return nil, fmt.Errorf("attack: decoy row %d equals target", d)
		}
	}
	h := &Hammerer{env: env, bank: bank, target: target, decoys: decoys}
	h.complete = h.onComplete
	return h, nil
}

// Hammer performs n target activations, then calls onDone (which may be
// nil). It must not be called while a previous hammer is active.
func (h *Hammerer) Hammer(n int, onDone func()) error {
	if h.active {
		return fmt.Errorf("attack: hammerer already active")
	}
	if n <= 0 {
		if onDone != nil {
			onDone()
		}
		return nil
	}
	// Alternate target/decoy, ending with a decoy so the final target
	// activation is closed (and counted by PRAC).
	h.seq = h.seq[:0]
	h.seqIsTarget = h.seqIsTarget[:0]
	for i := 0; i < n; i++ {
		h.seq = append(h.seq, h.target)
		h.seqIsTarget = append(h.seqIsTarget, true)
		h.seq = append(h.seq, h.decoys[h.di%len(h.decoys)])
		h.seqIsTarget = append(h.seqIsTarget, false)
		h.di++
	}
	h.seqIdx = 0
	h.active = true
	h.onDone = onDone
	h.pump()
	return nil
}

// Active reports whether a hammer run is in progress.
func (h *Hammerer) Active() bool { return h.active }

// pump keeps exactly one request in flight, chaining the next one at the
// moment the previous column command issues (not at data return): strict
// alternation is preserved — a second queued request to the still-open row
// would be served as a row hit by FR-FCFS and skip the activation — while
// the PRE/ACT turnaround still overlaps the data burst.
func (h *Hammerer) pump() {
	if h.seqIdx >= len(h.seq) {
		return
	}
	h.isTarget = h.seqIsTarget[h.seqIdx]
	if !h.env.Read(h.bank, h.seq[h.seqIdx], 0, h.complete) {
		h.env.RetryAt(h.pump)
		return
	}
	h.seqIdx++
}

// onComplete counts the in-flight read and chains the next one, or ends
// the run after the last.
func (h *Hammerer) onComplete(ticks.T) {
	if h.isTarget {
		h.TargetReads++
	}
	if h.seqIdx >= len(h.seq) {
		h.active = false
		if h.onDone != nil {
			h.onDone()
		}
		return
	}
	h.pump()
}
