package exp

import (
	"fmt"
	"sort"
	"sync"

	"pracsim/internal/fault"
	"pracsim/internal/sim"
	"pracsim/internal/stats"
)

// RunTelemetry is one executed simulation's execution record: which grid
// cell it was and how it ran. Cached cache hits do not add entries — the
// log holds one record per simulation actually executed, so wall-clock
// sums are real compute time.
type RunTelemetry struct {
	Variant  string
	Workload string
	T        sim.Telemetry
}

// telemetryLog collects per-simulation telemetry across pool workers.
type telemetryLog struct {
	mu      sync.Mutex
	entries []RunTelemetry
}

func (l *telemetryLog) add(e RunTelemetry) {
	l.mu.Lock()
	l.entries = append(l.entries, e)
	l.mu.Unlock()
}

func (l *telemetryLog) snapshot() []RunTelemetry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]RunTelemetry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Telemetry returns the per-simulation execution records of every run
// this session executed, in completion order.
func (s *Runner) Telemetry() []RunTelemetry { return s.r.tlog.snapshot() }

// TelemetryReport renders the session's execution telemetry: aggregate
// simulation rate and elision wins, plus the slowest `top` simulations so
// stragglers in large sweeps are visible at a glance. Sessions with a
// persistent store lead with the store's hit/miss/byte counters — on a
// fully warm store the session executes nothing and the store line is
// the whole story.
func (s *Runner) TelemetryReport(top int) string {
	out := ""
	if s.r.store != nil {
		out += s.r.store.Stats().Report(s.r.store.Spec()) + "\n"
	}
	// A fault schedule makes a session's numbers suspect by design; say
	// so whenever one actually fired.
	if p := fault.Active(); p != nil && fault.Fired() > 0 {
		out += fmt.Sprintf("faults: %d injected by schedule %q\n", fault.Fired(), p.Spec)
	}
	entries := s.r.tlog.snapshot()
	if len(entries) == 0 {
		return out + "telemetry: no simulations executed\n"
	}
	var wallNS, steps, elided, simTicks int64
	for _, e := range entries {
		wallNS += e.T.WallNS
		steps += e.T.EngineSteps
		elided += e.T.ElidedCycles()
		simTicks += int64(e.T.SimTicks)
	}
	// A per-cycle engine pays one timestep per simulated tick, so the
	// step reduction is simTicks/steps; elided is the raw component-cycle
	// count (cores and controller sum separately).
	out += fmt.Sprintf(
		"telemetry: %d simulations, %.2fs total sim compute, %.1f Mticks/s aggregate, %d engine steps (%.1fx fewer than per-cycle), %d component cycles elided\n",
		len(entries), float64(wallNS)/1e9,
		float64(simTicks)/(float64(wallNS)/1e9)/1e6,
		steps, float64(simTicks)/float64(steps),
		elided)
	sort.Slice(entries, func(i, j int) bool { return entries[i].T.WallNS > entries[j].T.WallNS })
	if top > len(entries) {
		top = len(entries)
	}
	if top > 0 {
		t := &stats.Table{Header: []string{"slowest runs", "workload", "wall-ms", "Mticks/s", "elided-cycles", "clock"}}
		for _, e := range entries[:top] {
			t.Add(e.Variant, e.Workload,
				float64(e.T.WallNS)/1e6, e.T.TicksPerSec/1e6, e.T.ElidedCycles(), e.T.Clock)
		}
		out += t.String()
	}
	return out
}
