package attack

import (
	"fmt"
	"math/rand"
	"sort"

	"pracsim/internal/dram"
	"pracsim/internal/memctrl"
	"pracsim/internal/ticks"
)

// ChannelResult summarizes a covert-channel transmission.
type ChannelResult struct {
	Symbols      int
	Errors       int
	Period       ticks.T // time per symbol
	BitsPerSym   float64
	BitrateKbps  float64
	ErrorRate    float64
	SentValues   []int
	DecodedVals  []int
	ABORFMs      int64
	AlertsRaised int64
}

func finishResult(r *ChannelResult) {
	if r.Symbols > 0 {
		r.ErrorRate = float64(r.Errors) / float64(r.Symbols)
	}
	if r.Period > 0 {
		r.BitrateKbps = r.BitsPerSym / r.Period.Seconds() / 1000
	}
}

// Covert-channel bank placement: the two receiver probes sit in different
// ranks (32 banks per rank in the Table 3 organization) so the coincidence
// detector can tell channel-wide RFM blocking from per-rank refresh.
const (
	senderBank    = 0  // rank 0
	sharedBank    = 3  // rank 0, activation-count channel
	probeBankA    = 5  // rank 0
	probeBankB    = 37 // rank 1
	watcherRow    = 1
	activityRowT  = 10
	activityRowD  = 11
	sharedRowAddr = 42
)

// ActivityConfig parameterizes the activity-based covert channel
// (Section 3.2, channel 1): one bit per window, signalled by the presence
// or absence of an Alert Back-Off.
type ActivityConfig struct {
	NBO     int
	Bits    []bool
	Window  ticks.T // 0 = auto-size from NBO
	NMit    int     // PRAC level; 0 = 1
	Seed    int64   // used when Bits is nil to generate random bits
	NumBits int     // used when Bits is nil
}

// RunActivityChannel executes the activity-based covert channel and reports
// the decoded bits, error rate and bitrate. The receiver runs two probe
// threads in different ranks and decodes Bit-1 from a coincident latency
// spike — the unambiguous signature of an RFMab.
func RunActivityChannel(cfg ActivityConfig) (ChannelResult, error) {
	if cfg.NBO <= 0 {
		return ChannelResult{}, fmt.Errorf("attack: NBO must be positive")
	}
	bits := cfg.Bits
	if bits == nil {
		rng := rand.New(rand.NewSource(cfg.Seed))
		bits = make([]bool, max(cfg.NumBits, 1))
		for i := range bits {
			bits[i] = rng.Intn(2) == 0
		}
	}

	dcfg := dram.DefaultConfig(cfg.NBO)
	if cfg.NMit > 0 {
		dcfg.PRAC.NMit = cfg.NMit
	}
	env, err := NewEnv(dcfg, memctrl.DefaultConfig(), nil)
	if err != nil {
		return ChannelResult{}, err
	}
	defer env.recycle()
	tm := dcfg.Timing

	window := cfg.Window
	if window == 0 {
		// A pair-alternating sender needs one PRE/ACT turnaround per
		// activation (about 57ns with tRTP+tRP pipelining) plus the
		// ~12% the refresh schedule steals; the RFM burst and
		// scheduling slack close the window.
		hammer := 2 * ticks.T(cfg.NBO) * ticks.FromNS(65)
		window = hammer + tm.TRFMab*ticks.T(dcfg.PRAC.NMit) + ticks.FromUS(5)
	}

	recvA, err := NewProber(env, probeBankA, []int{watcherRow}, 0)
	if err != nil {
		return ChannelResult{}, err
	}
	recvB, err := NewProber(env, probeBankB, []int{watcherRow}, 0)
	if err != nil {
		return ChannelResult{}, err
	}
	sender, err := NewHammerer(env, senderBank, activityRowT, []int{activityRowD})
	if err != nil {
		return ChannelResult{}, err
	}

	// Calibration: learn spike thresholds with the sender idle. Decoding
	// reads only spikes, so the receivers store nothing below the lowest
	// threshold a detector can have.
	recvA.KeepSpikesOnly()
	recvB.KeepSpikesOnly()
	recvA.Start()
	recvB.Start()
	env.Run(4 * window)
	detector, err := NewCoincidenceDetector(recvA, recvB)
	if err != nil {
		return ChannelResult{}, err
	}

	res := ChannelResult{Symbols: len(bits), BitsPerSym: 1, Period: window}
	start := env.Eng.Now()
	for i, bit := range bits {
		if !bit {
			continue
		}
		env.Eng.At(start+ticks.T(i)*window, func(ticks.T) {
			// Windows are sized so a hammer completes well within its
			// window; the guard only protects against extreme refresh
			// pile-ups delaying the previous hammer.
			if !sender.Active() {
				_ = sender.Hammer(cfg.NBO, nil)
			}
		})
	}
	env.Run(start + ticks.T(len(bits))*window + window/2)
	recvA.Stop()
	recvB.Stop()

	// Decode: a window carries Bit-1 if it contains a coincident spike.
	decoded := make([]bool, len(bits))
	for _, s := range recvA.Samples {
		if s.At < start || s.Latency <= detector.ThrA {
			continue
		}
		w := int((s.At - start) / window)
		if w >= 0 && w < len(decoded) && detector.HasCoincident(recvB.Samples, s.At) {
			decoded[w] = true
		}
	}
	for i, bit := range bits {
		sent, got := boolToInt(bit), boolToInt(decoded[i])
		res.SentValues = append(res.SentValues, sent)
		res.DecodedVals = append(res.DecodedVals, got)
		if sent != got {
			res.Errors++
		}
	}
	res.ABORFMs = env.Ctrl.Stats().ABORFMs
	res.AlertsRaised = env.Mod.Stats().AlertsAsserted
	finishResult(&res)
	return res, nil
}

// CountConfig parameterizes the activation-count covert channel
// (Section 3.2, channel 2): sender and receiver share one DRAM row; the
// sender encodes a value k in the row's activation counter and the receiver
// reads it back by counting its own activations until the ABO fires.
type CountConfig struct {
	NBO     int
	Values  []int // each in [0, SymbolSpace); nil = random
	NumVals int
	Seed    int64
	Window  ticks.T // 0 = auto

	// GuardBits trades payload for robustness: the sender only uses
	// counts that are multiples of 2^GuardBits and the decoder rounds,
	// absorbing the one-or-two-activation attribution jitter that
	// refresh interleaving adds around the Alert deadline. 0 keeps the
	// paper's full log2(NBO) bits per symbol. Negative selects the
	// default of 2.
	GuardBits int
}

// SymbolSpace reports how many distinct values one symbol can carry.
func (c CountConfig) SymbolSpace() int {
	return (c.NBO - countHeadroom) >> normalizeGuard(c.GuardBits)
}

const countHeadroom = 16

// normalizeGuard maps the zero value to the default of 2 guard bits and
// negative values to 0 (full log2(NBO) payload, as in the paper).
func normalizeGuard(g int) int {
	switch {
	case g == 0:
		return 2
	case g < 0:
		return 0
	default:
		return g
	}
}

// RunCountChannel executes the activation-count covert channel.
func RunCountChannel(cfg CountConfig) (ChannelResult, error) {
	if cfg.NBO <= 0 {
		return ChannelResult{}, fmt.Errorf("attack: NBO must be positive")
	}
	guard := normalizeGuard(cfg.GuardBits)
	space := cfg.SymbolSpace()
	if space <= 1 {
		return ChannelResult{}, fmt.Errorf("attack: NBO %d too small for %d guard bits", cfg.NBO, guard)
	}
	half := (1 << guard) / 2
	vals := cfg.Values
	if vals == nil {
		rng := rand.New(rand.NewSource(cfg.Seed))
		vals = make([]int, max(cfg.NumVals, 1))
		for i := range vals {
			vals[i] = rng.Intn(space)
		}
	}
	for _, v := range vals {
		if v < 0 || v >= space {
			return ChannelResult{}, fmt.Errorf("attack: value %d outside [0,%d)", v, space)
		}
	}

	dcfg := dram.DefaultConfig(cfg.NBO)
	env, err := NewEnv(dcfg, memctrl.DefaultConfig(), nil)
	if err != nil {
		return ChannelResult{}, err
	}
	defer env.recycle()
	tm := dcfg.Timing

	window := cfg.Window
	senderPhase := 2*ticks.T(cfg.NBO)*ticks.FromNS(65) + ticks.FromUS(4)
	if window == 0 {
		// Receiver activations are completion-chained and verify raw
		// spikes, costing about 180ns per target activation with the
		// refresh tax folded in.
		receiver := 2*ticks.T(cfg.NBO)*ticks.FromNS(90) + ticks.FromUS(6)
		window = senderPhase + receiver + tm.TRFMab
	}

	// Large decoy pools keep decoy counters far from NBO over the run.
	senderDecoys := rowPool(1000, 256, sharedRowAddr)
	receiverDecoys := rowPool(3000, 256, sharedRowAddr)
	sender, err := NewHammerer(env, sharedBank, sharedRowAddr, senderDecoys)
	if err != nil {
		return ChannelResult{}, err
	}

	// The watcher runs in another rank for the whole transmission; a
	// receiver spike coincident with a watcher spike is an RFM. Only
	// spikes are ever read back, so neither prober stores the rest.
	watcher, err := NewProber(env, probeBankB, []int{watcherRow}, 0)
	if err != nil {
		return ChannelResult{}, err
	}
	watcher.KeepSpikesOnly()
	watcher.Start()
	calib, err := NewProber(env, probeBankA, []int{watcherRow}, 0)
	if err != nil {
		return ChannelResult{}, err
	}
	calib.KeepSpikesOnly()
	calib.Start()
	env.Run(3 * window)
	calib.Stop()
	detector, err := NewCoincidenceDetector(calib, watcher)
	if err != nil {
		return ChannelResult{}, err
	}

	// Calibration symbols: learn the offset between the receiver's
	// activation count at the observed spike and NBO-k (the ABOACT
	// allowance plus pipelining). The median over three symbols centers
	// the +-1 jitter refresh interleaving adds.
	calK := (space/2)<<guard + half
	var deltas []int
	for i := 0; i < 3; i++ {
		calCount, err := runCountSymbol(env, sender, watcher, detector, receiverDecoys, calK, window, senderPhase, cfg.NBO)
		if err != nil {
			return ChannelResult{}, err
		}
		deltas = append(deltas, calCount-(cfg.NBO-calK))
	}
	sort.Ints(deltas)
	delta := deltas[1]

	res := ChannelResult{Symbols: len(vals), BitsPerSym: log2(cfg.NBO) - float64(guard), Period: window}
	for _, v := range vals {
		k := v<<guard + half
		count, err := runCountSymbol(env, sender, watcher, detector, receiverDecoys, k, window, senderPhase, cfg.NBO)
		if err != nil {
			// Lost symbol (for instance a tREFW counter reset wiped the
			// shared row mid-window). Force an ABO to return the shared
			// row to a known state, then count the symbol as an error.
			recoverSharedRow(env, sender, cfg.NBO, window)
			res.SentValues = append(res.SentValues, v)
			res.DecodedVals = append(res.DecodedVals, -1)
			res.Errors++
			continue
		}
		// raw = v<<guard + half + jitter; for jitter in [-half, half-1]
		// the shift recovers v exactly.
		raw := cfg.NBO - (count - delta)
		if raw < 0 {
			raw = 0
		}
		got := raw >> guard
		res.SentValues = append(res.SentValues, v)
		res.DecodedVals = append(res.DecodedVals, got)
		if got != v {
			res.Errors++
		}
	}
	watcher.Stop()
	res.ABORFMs = env.Ctrl.Stats().ABORFMs
	res.AlertsRaised = env.Mod.Stats().AlertsAsserted
	finishResult(&res)
	return res, nil
}

// runCountSymbol transmits one value: the sender activates the shared row
// k times in its half of the window, then the receiver activates it for the
// rest of the window, recording latencies; offline, the first receiver
// spike coincident with a watcher spike marks the ABO, and the receiver's
// activation count at that point encodes k.
func runCountSymbol(env *Env, sender *Hammerer, watcher *Prober, det *CoincidenceDetector, receiverDecoys []int, k int, window, senderPhase ticks.T, nbo int) (int, error) {
	start := env.Eng.Now()
	senderDone := k == 0
	if err := sender.Hammer(k, func() { senderDone = true }); err != nil {
		return 0, err
	}
	env.Run(start + senderPhase)
	if !senderDone {
		return 0, fmt.Errorf("attack: sender phase overran its budget (k=%d)", k)
	}

	count, found := runCountReceiver(env, watcher, det, sharedBank, sharedRowAddr, receiverDecoys, nbo+8, start+window)
	env.Run(start + window)
	if !found {
		return 0, fmt.Errorf("attack: no RFM observed in receiver phase (k=%d)", k)
	}
	return count, nil
}

// runCountReceiver alternates shared-row and decoy reads, watching every
// access's latency. On a raw spike it holds briefly; if a watcher spike
// confirms the coincidence (an RFM, hence the ABO), it stops and reports
// the shared-row activation count at that access. Unconfirmed spikes
// (refresh) resume probing. Stopping at the ABO matters: it keeps the
// receiver from piling residual activations onto the just-mitigated shared
// row, which would corrupt the next symbol.
func runCountReceiver(env *Env, watcher *Prober, det *CoincidenceDetector, bank, row int, decoys []int, limit int, deadline ticks.T) (int, bool) {
	r := newCountReceiver(env, watcher, det, bank, row, decoys, limit)
	r.step()
	for !r.done && env.Eng.Now() < deadline-ticks.FromUS(1) {
		env.Run(env.Eng.Now() + ticks.FromUS(1))
	}
	r.done = true
	if r.result >= 0 {
		return r.result, true
	}
	return r.count, false
}

// countReceiver is runCountReceiver's access chain. It keeps one read in
// flight, so that read's issue time and target live in fields and its
// completion, resume and confirm funcs are bound once: the chain
// allocates nothing per access.
type countReceiver struct {
	env     *Env
	watcher *Prober
	det     *CoincidenceDetector
	bank    int
	row     int
	decoys  []int
	limit   int

	count     int  // shared-row reads completed
	di        int  // next decoy index
	next      bool // next access targets the shared row
	toTarget  bool // the read in flight targets the shared row
	arrive    ticks.T
	candCount int // count at the spike awaiting confirmation
	result    int // confirmed count, or -1
	done      bool

	complete func(at ticks.T)
	resume   func(ticks.T)
	confirm  func(ticks.T)
	retry    func()
}

func newCountReceiver(env *Env, watcher *Prober, det *CoincidenceDetector, bank, row int, decoys []int, limit int) *countReceiver {
	r := &countReceiver{
		env: env, watcher: watcher, det: det,
		bank: bank, row: row, decoys: decoys, limit: limit,
		next: true, result: -1,
	}
	r.complete = r.onComplete
	r.resume = func(ticks.T) { r.step() }
	r.confirm = r.onConfirm
	r.retry = r.step
	return r
}

func (r *countReceiver) step() {
	if r.done {
		return
	}
	r.toTarget = r.next
	r.next = !r.next
	row := r.row
	if !r.toTarget {
		row = r.decoys[r.di%len(r.decoys)]
		r.di++
	}
	r.arrive = r.env.Eng.Now()
	if !r.env.Read(r.bank, row, 0, r.complete) {
		r.env.RetryAt(r.retry)
	}
}

func (r *countReceiver) onComplete(at ticks.T) {
	if r.toTarget {
		r.count++
	}
	if at-r.arrive > r.det.ThrA {
		// Candidate RFM: the watcher's coincident sample (both probes
		// unblock together) lands within a burst or two, so a short
		// hold suffices to verify.
		r.candCount = r.count
		r.env.Eng.At(at+ticks.FromNS(400), r.confirm)
		return
	}
	if r.count >= r.limit {
		r.done = true
		return
	}
	r.env.Eng.At(at, r.resume)
}

func (r *countReceiver) onConfirm(ticks.T) {
	if r.det.HasCoincident(r.watcher.Samples, r.arrive) {
		r.result = r.candCount
		r.done = true
		return
	}
	r.step() // refresh-induced: resume
}

// recoverSharedRow drives the shared row to NBO so the resulting ABO
// mitigation resets its counter, restoring the channel's known state after
// a lost symbol.
func recoverSharedRow(env *Env, sender *Hammerer, nbo int, window ticks.T) {
	done := false
	if sender.Active() {
		return
	}
	if err := sender.Hammer(nbo, func() { done = true }); err != nil {
		return
	}
	deadline := env.Eng.Now() + 2*window
	for !done && env.Eng.Now() < deadline {
		env.Run(env.Eng.Now() + ticks.FromUS(2))
	}
}

// rowPool returns n distinct rows starting at base, skipping the excluded row.
func rowPool(base, n, exclude int) []int {
	rows := make([]int, 0, n)
	for r := base; len(rows) < n; r++ {
		if r != exclude {
			rows = append(rows, r)
		}
	}
	return rows
}

func log2(n int) float64 {
	b := 0.0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
