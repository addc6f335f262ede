package attack

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pracsim/internal/memctrl"
	"pracsim/internal/ticks"
)

// TestProberAllocFree is the allocation guard for the receiver pump: the
// completion and reissue funcs are bound once in NewProber, so a warm
// prober cycling through two rows (one activation per probe) allocates
// nothing per request. Samples is pre-sized so its growth is not counted.
func TestProberAllocFree(t *testing.T) {
	env := newTestEnv(t, 1<<20)
	p, err := NewProber(env, 3, []int{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Samples = make([]Sample, 0, 1<<14)
	p.Start()
	env.Run(ticks.FromUS(5)) // warm: event heap and per-row map grown
	before := len(p.Samples)
	allocs := testing.AllocsPerRun(200, func() {
		env.Run(env.Eng.Now() + ticks.FromNS(500))
	})
	if allocs != 0 {
		t.Errorf("probing allocates %.2f objects per 500ns, want 0", allocs)
	}
	if len(p.Samples)-before < 500 {
		t.Fatalf("guard recorded only %d probes", len(p.Samples)-before)
	}
}

// TestHammererAllocFree is the same guard for the sender pump: a warm
// hammer run chains its reads through one bound completion func.
func TestHammererAllocFree(t *testing.T) {
	env := newTestEnv(t, 1<<20)
	h, err := NewHammerer(env, 0, 5, []int{6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Hammer(5000, nil); err != nil {
		t.Fatal(err)
	}
	env.Run(ticks.FromUS(5))
	before := h.TargetReads
	allocs := testing.AllocsPerRun(200, func() {
		env.Run(env.Eng.Now() + ticks.FromNS(500))
	})
	if allocs != 0 {
		t.Errorf("hammering allocates %.2f objects per 500ns, want 0", allocs)
	}
	if h.TargetReads-before < 500 {
		t.Fatalf("guard hammered only %d target reads", h.TargetReads-before)
	}
}

// TestHammererTicksPerRead pins the controller's exact sleep: a lone
// hammerer below NBO needs PRE, ACT and RD per read, so the demand clock
// ticks the controller at most 4 times per read (refreshes included)
// instead of through every tRP/tRCD wait cycle.
func TestHammererTicksPerRead(t *testing.T) {
	env := newTestEnv(t, 1<<20)
	h, err := NewHammerer(env, 0, 5, []int{6})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	if err := h.Hammer(50, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	for !done {
		env.Run(env.Eng.Now() + ticks.FromNS(100))
	}
	cycles := int64(env.Eng.Now()/memctrl.CyclePeriod) + 1
	ticked := cycles - env.ElidedCycles()
	reads := env.Ctrl.Stats().Reads
	if reads != 100 {
		t.Fatalf("hammer issued %d reads, want 100", reads)
	}
	if ticked > 4*reads {
		t.Errorf("controller ticked %d times for %d reads (%.1f per read), want at most 4 per read",
			ticked, reads, float64(ticked)/float64(reads))
	}
}

// TestHasCoincidentMatchesLinearScan checks the binary-searched
// coincidence check against a scan of every sample, on random
// time-ordered sample streams and query times inside and around them.
func TestHasCoincidentMatchesLinearScan(t *testing.T) {
	linear := func(d *CoincidenceDetector, b []Sample, at ticks.T) bool {
		for _, s := range b {
			if s.At >= at-d.Window && s.At <= at+d.Window && s.Latency > d.ThrB {
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		d := &CoincidenceDetector{ThrB: 100, Window: ticks.T(1 + rng.Intn(400))}
		b := make([]Sample, rng.Intn(60))
		at := ticks.T(0)
		for i := range b {
			at += ticks.T(rng.Intn(300)) // gaps of 0 allowed: equal At values
			b[i] = Sample{At: at, Latency: ticks.T(rng.Intn(140))}
		}
		for q := 0; q < 50; q++ {
			query := ticks.T(rng.Intn(int(at)+1000)) - 500
			if got, want := d.HasCoincident(b, query), linear(d, b, query); got != want {
				t.Fatalf("trial %d: HasCoincident(%v) = %v, linear scan says %v (window %v, samples %v)",
					trial, query, got, want, d.Window, b)
			}
		}
	}
}

// TestRoundRobinProbeAllocFree guards the AES attacker's probe chain: each
// probe's completion func is bound once on a reused rrProbe, so a warm
// chain with pre-sized logs allocates nothing per probe. The detector's
// threshold is out of reach so the chain never pauses on a spike.
func TestRoundRobinProbeAllocFree(t *testing.T) {
	env := newTestEnv(t, 1<<20)
	rr := newRoundRobin(env, &CoincidenceDetector{ThrA: ticks.FromUS(1000)}, 0)
	rr.order = make([]int, 0, 1<<14)
	rr.samples = make([]Sample, 0, 1<<14)
	rr.step()
	env.Run(ticks.FromUS(5))
	before := len(rr.samples)
	allocs := testing.AllocsPerRun(200, func() {
		env.Run(env.Eng.Now() + ticks.FromNS(500))
	})
	if allocs != 0 {
		t.Errorf("round-robin probing allocates %.2f objects per 500ns, want 0", allocs)
	}
	if len(rr.samples)-before < 500 {
		t.Fatalf("guard recorded only %d probes", len(rr.samples)-before)
	}
}

// TestCountReceiverAllocFree guards the count channel's receiver chain:
// its completion, resume and confirm funcs are bound once, so a warm
// receiver allocates nothing per access, refresh spikes that it holds on
// and then rejects included. NBO is out of reach, so no spike is an RFM.
func TestCountReceiverAllocFree(t *testing.T) {
	env := newTestEnv(t, 1<<20)
	watcher, err := NewProber(env, probeBankB, []int{watcherRow}, 0)
	if err != nil {
		t.Fatal(err)
	}
	watcher.KeepSpikesOnly()
	watcher.Samples = make([]Sample, 0, 1<<10)
	watcher.Start()
	det := &CoincidenceDetector{ThrA: ticks.FromNS(300), ThrB: ticks.FromNS(300), Window: ticks.FromNS(600)}
	r := newCountReceiver(env, watcher, det, sharedBank, sharedRowAddr, rowPool(3000, 256, sharedRowAddr), 1<<30)
	r.step()
	env.Run(ticks.FromUS(5))
	before := r.count
	// Each run spans several tREFI, so a per-spike allocation shows up
	// as at least one allocation per run rather than averaging out.
	allocs := testing.AllocsPerRun(10, func() {
		env.Run(env.Eng.Now() + ticks.FromUS(20))
	})
	if allocs != 0 {
		t.Errorf("count receiver allocates %.2f objects per 20us, want 0", allocs)
	}
	if r.done || r.count-before < 250 {
		t.Fatalf("guard made only %d shared-row reads (done=%v)", r.count-before, r.done)
	}
}

// feedProber records one synthetic sample per latency, issued gap ticks
// apart, through the prober's own completion path.
func feedProber(p *Prober, lats []ticks.T, gap ticks.T) {
	for _, lat := range lats {
		p.arrive += gap
		p.onComplete(p.arrive + lat)
	}
}

// randomLatencies returns n probe-like latencies: a few common baseline
// values with occasional large spikes, some of them exactly at
// spikeMargin, the boundary KeepSpikesOnly filters at.
func randomLatencies(rng *rand.Rand, n int) []ticks.T {
	lats := make([]ticks.T, n)
	for i := range lats {
		switch r := rng.Intn(20); {
		case r == 0:
			lats[i] = spikeMargin
		case r < 3:
			lats[i] = ticks.T(rng.Intn(int(8 * spikeMargin)))
		default:
			lats[i] = ticks.T(60 + 4*rng.Intn(8))
		}
	}
	return lats
}

// TestProberMedianMatchesSort checks the histogram median against sorting
// every latency, on seeded random streams, with and without
// KeepSpikesOnly, after every sample.
func TestProberMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		p, err := NewProber(newTestEnv(t, 1<<20), 0, []int{1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p.Median() != 0 {
			t.Fatalf("median of no samples = %v, want 0", p.Median())
		}
		keepAt := rng.Intn(200)
		if trial%2 == 0 {
			keepAt = -1 // never filter
		}
		var all []ticks.T
		for i, lat := range randomLatencies(rng, 1+rng.Intn(300)) {
			if i == keepAt {
				p.KeepSpikesOnly()
			}
			feedProber(p, []ticks.T{lat}, 100)
			all = append(all, lat)
			sorted := slices.Clone(all)
			slices.Sort(sorted)
			if p.n != len(all) {
				t.Fatalf("trial %d: n = %d after %d samples", trial, p.n, len(all))
			}
			if got, want := p.Median(), sorted[len(sorted)/2]; got != want {
				t.Fatalf("trial %d, sample %d: Median() = %v, sorted[N/2] = %v", trial, i, got, want)
			}
		}
	}
}

// TestKeepSpikesOnlyPreservesCoincidence extends
// TestHasCoincidentMatchesLinearScan to filtered probers: on random
// streams, HasCoincident over a prober that KeepSpikesOnly — set part way
// through, so stored samples are dropped too — equals HasCoincident over
// every sample for any ThrB at or above spikeMargin, and the filtered log
// is exactly the ordered subsequence above spikeMargin.
func TestKeepSpikesOnlyPreservesCoincidence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		env := newTestEnv(t, 1<<20)
		full, err := NewProber(env, 0, []int{1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		kept, err := NewProber(env, 0, []int{1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		lats := randomLatencies(rng, rng.Intn(120))
		gap := ticks.T(rng.Intn(300))
		cut := rng.Intn(len(lats) + 1)
		feedProber(full, lats, gap)
		feedProber(kept, lats[:cut], gap)
		kept.KeepSpikesOnly()
		feedProber(kept, lats[cut:], gap)

		var want []Sample
		for _, s := range full.Samples {
			if s.Latency > spikeMargin {
				want = append(want, s)
			}
		}
		if !slices.Equal(kept.Samples, want) {
			t.Fatalf("trial %d: kept samples %v, want %v", trial, kept.Samples, want)
		}
		end := kept.arrive
		for q := 0; q < 50; q++ {
			thrB := spikeMargin + ticks.T(rng.Intn(int(4*spikeMargin)))
			if q%5 == 0 {
				thrB = spikeMargin // the lowest threshold a detector can have
			}
			d := &CoincidenceDetector{
				ThrB:   thrB,
				Window: ticks.T(1 + rng.Intn(400)),
			}
			at := ticks.T(rng.Intn(int(end)+1000)) - 500
			if got, want := d.HasCoincident(kept.Samples, at), d.HasCoincident(full.Samples, at); got != want {
				t.Fatalf("trial %d: filtered HasCoincident(%v) = %v, full log says %v (ThrB %v)",
					trial, at, got, want, d.ThrB)
			}
		}
	}
}

// TestAttackRunnersFootprint caps what one attack run allocates in total.
// The receivers store only samples that can be spikes, so a run's bytes no
// longer grow with its length.
func TestAttackRunnersFootprint(t *testing.T) {
	const limit = 1 << 20
	runs := []struct {
		name string
		run  func() error
	}{
		{"RunAESAttack", func() error {
			_, err := RunAESAttack(AESConfig{Key: make([]byte, 16), Encryptions: 200, NBO: 256, Seed: 1})
			return err
		}},
		{"RunCountChannel", func() error {
			_, err := RunCountChannel(CountConfig{NBO: 256, NumVals: 8, Seed: 1})
			return err
		}},
		{"RunActivityChannel", func() error {
			_, err := RunActivityChannel(ActivityConfig{NBO: 256, NumBits: 16, Seed: 1})
			return err
		}},
	}
	for _, r := range runs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := r.run(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s allocated %.2f MiB", r.name, float64(got)/(1<<20))
		if got > limit {
			t.Errorf("%s allocated %d bytes, want at most %d", r.name, got, limit)
		}
	}
}
