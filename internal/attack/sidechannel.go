package attack

import (
	"fmt"
	"math/rand"

	"pracsim/internal/aes"
	"pracsim/internal/dram"
	"pracsim/internal/memctrl"
	"pracsim/internal/mitigation"
	"pracsim/internal/ticks"
)

// AESConfig parameterizes the PRACLeak side-channel attack on a T-table
// AES victim (Section 3.3).
type AESConfig struct {
	Key         []byte // the victim's secret key (16 bytes)
	TargetByte  int    // which key byte to attack (0..15)
	Plaintext   byte   // fixed plaintext byte at TargetByte
	Encryptions int    // victim encryptions before probing (paper: 200)
	NBO         int    // Back-Off threshold (paper's attack demo: 256)
	Seed        int64  // randomness for the non-fixed plaintext bytes

	// Defense, when non-nil, installs an RFM policy (e.g. TPRAC) so the
	// same attack can be re-run against the defended system (Figure 9).
	Defense func() (mitigation.Policy, error)

	// TimelineRes, when positive, samples per-row activation counters at
	// this period for Figure 4's timeline panels.
	TimelineRes ticks.T
}

// TimelinePoint is one Figure 4 sample: activation counts at an instant.
type TimelinePoint struct {
	At         ticks.T
	TargetActs uint32 // activation counter of the victim's hot row
	MaxOther   uint32 // highest counter among the other 15 rows
	RFMs       int64
}

// AESResult reports one attack instance.
type AESResult struct {
	VictimRowActs  [aes.CacheLinesPerTable]uint32 // per-row victim activations (Fig 5a)
	SpikeRow       int                            // row probed when the first RFM hit (Fig 9)
	AttackerCount  int                            // attacker activations to SpikeRow (Fig 5b)
	RecoveredRow   int                            // row attributed to the victim's hot line
	TrueRow        int                            // ground truth: (p XOR k) >> 4
	RecoveredNib   int                            // recovered top nibble of the key byte
	TrueNib        int                            // ground truth nibble
	Hit            bool
	Samples        []Sample
	Timeline       []TimelinePoint
	ABORFMs        int64
	TotalRFMs      int64
	ProbeRowsOrder []int
}

// victimBank is where the T-tables live. Each of the 4 tables spans 16
// cache lines and each line maps to a distinct DRAM row (the paper's
// co-location setup: rows larger than a page / MOP striping), so the
// victim's first round touches rows 0..63 and the attacker monitors the
// 16 rows of the table its target byte indexes.
const victimBank = 2

// tableRow maps a first-round access to its DRAM row.
func tableRow(table, line int) int { return table*aes.CacheLinesPerTable + line }

// RunAESAttackVoted runs the attack `votes` times with derived seeds and
// attributes the hot row by majority, the standard way chosen-plaintext
// attackers absorb residual measurement jitter (each instance costs well
// under a millisecond of victim time). The returned result is the first
// instance that voted with the majority; a tie goes to the row voted
// first.
func RunAESAttackVoted(cfg AESConfig, votes int) (AESResult, error) {
	if votes <= 1 {
		return RunAESAttack(cfg)
	}
	runs := make([]AESResult, votes)
	counts := map[int]int{}
	for i := range runs {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*1009
		r, err := RunAESAttack(c)
		if err != nil {
			return r, err
		}
		runs[i] = r
		counts[r.RecoveredRow]++
	}
	// Scanning in vote order, not over the map, sends a tie to the row
	// voted first and keeps the outcome deterministic.
	res := runs[0]
	for _, r := range runs[1:] {
		if counts[r.RecoveredRow] > counts[res.RecoveredRow] {
			res = r
		}
	}
	return res, nil
}

// RunAESAttack executes one attack instance: the victim encrypts
// attacker-chosen plaintexts while its T-table lines are flushed (so every
// first-round lookup reaches DRAM), then the attacker probes the 16 rows
// round-robin until an RFM-induced spike reveals the hottest row.
func RunAESAttack(cfg AESConfig) (AESResult, error) {
	if len(cfg.Key) != aes.KeySize {
		return AESResult{}, fmt.Errorf("attack: key must be %d bytes", aes.KeySize)
	}
	if cfg.TargetByte < 0 || cfg.TargetByte >= aes.BlockSize {
		return AESResult{}, fmt.Errorf("attack: target byte %d out of range", cfg.TargetByte)
	}
	if cfg.Encryptions <= 0 || cfg.NBO <= 0 {
		return AESResult{}, fmt.Errorf("attack: encryptions and NBO must be positive")
	}

	dcfg := dram.DefaultConfig(cfg.NBO)
	var policy mitigation.Policy
	if cfg.Defense != nil {
		p, err := cfg.Defense()
		if err != nil {
			return AESResult{}, err
		}
		policy = p
	}
	env, err := NewEnv(dcfg, memctrl.DefaultConfig(), policy)
	if err != nil {
		return AESResult{}, err
	}
	defer env.recycle()

	cipher, err := aes.NewCipher(cfg.Key)
	if err != nil {
		return AESResult{}, err
	}

	table := cfg.TargetByte % 4 // byte i feeds T-table (i mod 4) in round 1
	res := AESResult{
		TrueRow: tableRow(table, int(cfg.Plaintext^cfg.Key[cfg.TargetByte])>>4),
		TrueNib: int(cfg.Key[cfg.TargetByte]) >> 4,
	}

	if cfg.TimelineRes > 0 {
		env.Eng.AddTicker(cfg.TimelineRes, 0, func(now ticks.T) {
			pt := TimelinePoint{
				At:         now,
				TargetActs: env.Mod.RowCounter(victimBank, res.TrueRow),
				RFMs:       env.Mod.Stats().RFMs,
			}
			for l := 0; l < aes.CacheLinesPerTable; l++ {
				r := tableRow(table, l)
				if r == res.TrueRow {
					continue
				}
				if c := env.Mod.RowCounter(victimBank, r); c > pt.MaxOther {
					pt.MaxOther = c
				}
			}
			res.Timeline = append(res.Timeline, pt)
		})
	}

	// Spike-threshold calibration before any victim activity. The probe
	// bank (rank 0) and watcher bank (rank 1) sit in different ranks so
	// the coincidence detector can separate RFMs from per-rank refresh.
	// The watcher runs through the whole attack but is only read for
	// spikes, so neither prober stores the rest.
	watcher, err := NewProber(env, 37, []int{1}, 0)
	if err != nil {
		return AESResult{}, err
	}
	watcher.KeepSpikesOnly()
	watcher.Start()
	calib, err := NewProber(env, 9, []int{1}, 0)
	if err != nil {
		return AESResult{}, err
	}
	calib.KeepSpikesOnly()
	calib.Start()
	env.Run(ticks.FromUS(40))
	calib.Stop()
	detector, err := NewCoincidenceDetector(calib, watcher)
	if err != nil {
		return AESResult{}, err
	}

	// Phase 1: the victim encrypts; every first-round T-table lookup
	// becomes a DRAM access to row (index >> 4) because the attacker
	// flushes the lines in parallel.
	rng := rand.New(rand.NewSource(cfg.Seed))
	if err := runVictim(env, cipher, cfg, rng); err != nil {
		return AESResult{}, err
	}
	for l := 0; l < aes.CacheLinesPerTable; l++ {
		res.VictimRowActs[l] = env.Mod.RowCounter(victimBank, tableRow(table, l))
	}

	// Phase 2: the attacker probes the target table's 16 rows
	// round-robin, one activation each, until an RFM appears: a probe
	// spike coincident with a watcher spike in the other rank. Under
	// TPRAC the first such RFM is a TB-RFM whose timing is unrelated to
	// the probing, so the attributed row is noise (Figure 9b).
	spikeRow, spikeCount, order, samples, err := probeRoundRobin(env, watcher, detector, table, cfg.NBO)
	watcher.Stop()
	res.Samples = samples
	res.ProbeRowsOrder = order
	if err != nil {
		return res, err
	}
	res.SpikeRow = spikeRow
	res.AttackerCount = spikeCount

	// Attribution: the ABOACT allowance lets the controller issue up to
	// three more activations between the Alert and the RFM block, so the
	// row whose access observed the spike trails the triggering row by a
	// small constant. The attacker compensates by stepping back to the
	// probe that crossed the threshold.
	res.RecoveredRow = spikeRow
	res.RecoveredNib = (res.RecoveredRow - table*aes.CacheLinesPerTable) ^ int(cfg.Plaintext>>4)
	res.Hit = res.RecoveredRow == res.TrueRow
	res.ABORFMs = env.Ctrl.Stats().ABORFMs
	res.TotalRFMs = env.Mod.Stats().RFMs
	return res, nil
}

// runVictim performs the encryptions, issuing the 16 first-round accesses
// of each encryption as chained DRAM reads. One access buffer serves every
// encryption: the chain is done with it before the next one starts.
func runVictim(env *Env, cipher *aes.Cipher, cfg AESConfig, rng *rand.Rand) error {
	pt := make([]byte, aes.BlockSize)
	accs := make([]aes.FirstRoundAccess, 0, aes.BlockSize)
	chain := newVictimChain(env)
	for enc := 0; enc < cfg.Encryptions; enc++ {
		rng.Read(pt)
		pt[cfg.TargetByte] = cfg.Plaintext
		var err error
		accs, err = cipher.FirstRoundAccesses(accs[:0], pt)
		if err != nil {
			return err
		}
		chain.start(accs)
		deadline := env.Eng.Now() + ticks.FromUS(40)
		for !chain.done && env.Eng.Now() < deadline {
			env.Run(env.Eng.Now() + ticks.FromUS(1))
		}
		if !chain.done {
			return fmt.Errorf("attack: victim encryption %d stalled", enc)
		}
	}
	return nil
}

// victimChain issues one encryption's first-round accesses as dependent
// DRAM reads, each issued when the previous one's data returns. One read
// is in flight at a time, so its funcs are bound once and the chain
// allocates nothing per access.
type victimChain struct {
	env  *Env
	accs []aes.FirstRoundAccess
	i    int // index of the access in flight
	done bool

	complete func(at ticks.T)
	advance  func(ticks.T)
}

func newVictimChain(env *Env) *victimChain {
	c := &victimChain{env: env}
	c.complete = func(at ticks.T) { c.env.Eng.At(at, c.advance) }
	c.advance = func(ticks.T) {
		c.i++
		c.issueCurrent()
	}
	return c
}

// start begins the chain over accs.
func (c *victimChain) start(accs []aes.FirstRoundAccess) {
	c.accs, c.i, c.done = accs, 0, false
	c.issueCurrent()
}

func (c *victimChain) issueCurrent() {
	if c.i >= len(c.accs) {
		c.done = true
		return
	}
	row := tableRow(c.accs[c.i].Table, c.accs[c.i].Line())
	if !c.env.Read(victimBank, row, 0, c.complete) {
		c.env.RetryAt(c.issueCurrent)
	}
}

// probeShift is how many probes the observed RFM block trails the probe
// that pushed the hot row across NBO: the crossing is detected at the
// following probe's precharge, and the tABOACT window then admits a few
// more activations before the controller issues the RFM. The value is a
// deterministic property of the probing loop's pacing against the 180 ns
// allowance and is calibrated once per system configuration
// (TestProbeShiftCalibration pins it).
const probeShift = 3

// probeRoundRobin activates the target table's 16 rows cyclically,
// recording every probe's latency; it stops once a probe spike is confirmed
// coincident with a watcher spike (an RFM), and returns the row whose probe
// crossed the Back-Off threshold, the number of probes that row had
// received, the probing order and all samples.
func probeRoundRobin(env *Env, watcher *Prober, det *CoincidenceDetector, table, nbo int) (row, count int, order []int, samples []Sample, err error) {
	rr := newRoundRobin(env, det, table)
	rr.step()
	// Upper bound: every row may need up to NBO activations.
	deadline := env.Eng.Now() + ticks.T(16*(nbo+16))*ticks.FromNS(120) + ticks.FromUS(200)
	spikeIdx := -1
	for env.Eng.Now() < deadline {
		env.Run(env.Eng.Now() + ticks.FromUS(2))
		// Only raw spikes can be confirmed: re-check those, in order.
		for _, i := range rr.spikes {
			if det.HasCoincident(watcher.Samples, rr.samples[i].At) {
				spikeIdx = i
				break
			}
		}
		if spikeIdx >= 0 {
			break
		}
		if rr.finished { // raw spike seen but not confirmed: resume probing
			rr.finished = false
			rr.step()
		}
	}
	rr.finished = true
	if spikeIdx < 0 {
		return 0, 0, rr.order, rr.samples, fmt.Errorf("attack: no RFM observed while probing")
	}
	trigIdx := spikeIdx - probeShift
	if trigIdx < 0 {
		trigIdx = 0
	}
	// The row had received one probe per earlier occurrence in the
	// order, the triggering probe included.
	row = rr.order[trigIdx]
	for _, r := range rr.order[:trigIdx+1] {
		if r == row {
			count++
		}
	}
	return row, count, rr.order, rr.samples, nil
}

// roundRobin is probeRoundRobin's probe chain. Each probe's issue time and
// line live in an rrProbe whose completion func is bound once; completed
// rrProbes are reused, so once warm the chain allocates nothing per probe
// beyond the growth of its logs. A resume after an unconfirmed spike can
// start a second chain while a probe is still in flight, so probes do not
// share one set of fields.
type roundRobin struct {
	env   *Env
	det   *CoincidenceDetector
	table int

	idx      int // probes issued
	finished bool

	order   []int    // row of each sample
	samples []Sample // every probe, in completion order
	spikes  []int    // indices of samples above det.ThrA

	free   []*rrProbe // completed probes, ready for reuse
	retry  func()
	finish func(ticks.T)
}

// rrProbe is one round-robin probe read.
type rrProbe struct {
	rr       *roundRobin
	line     int
	arrive   ticks.T
	complete func(at ticks.T)
}

func newRoundRobin(env *Env, det *CoincidenceDetector, table int) *roundRobin {
	rr := &roundRobin{
		env:   env,
		det:   det,
		table: table,
	}
	rr.retry = rr.step
	rr.finish = func(ticks.T) { rr.finished = true }
	return rr
}

func (rr *roundRobin) step() {
	if rr.finished {
		return
	}
	var p *rrProbe
	if n := len(rr.free); n > 0 {
		p, rr.free = rr.free[n-1], rr.free[:n-1]
	} else {
		p = &rrProbe{rr: rr}
		p.complete = p.onComplete
	}
	p.line = rr.idx % aes.CacheLinesPerTable
	rr.idx++
	p.arrive = rr.env.Eng.Now()
	if !rr.env.Read(victimBank, tableRow(rr.table, p.line), 0, p.complete) {
		rr.free = append(rr.free, p)
		rr.env.RetryAt(rr.retry)
	}
}

func (p *rrProbe) onComplete(at ticks.T) {
	rr := p.rr
	line, lat := p.line, at-p.arrive
	rr.free = append(rr.free, p)
	row := tableRow(rr.table, line)
	rr.order = append(rr.order, row)
	rr.samples = append(rr.samples, Sample{At: p.arrive, Latency: lat, Row: row})
	if lat > rr.det.ThrA {
		rr.spikes = append(rr.spikes, len(rr.samples)-1)
		// Stop probing shortly after a raw spike so the offline
		// coincidence check has watcher samples past it.
		if len(rr.samples) > 8 {
			rr.env.Eng.After(ticks.FromUS(3), rr.finish)
		}
	}
	// Chain at column-command issue (now), not at data return: the ~57ns
	// activation cadence keeps three probes inside the 180ns tABOACT
	// window, so the ACT allowance — not the deadline — bounds the
	// Alert-to-RFM distance and the probe-index shift stays
	// deterministic.
	rr.step()
}
