package attack

import (
	"math/rand"
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
