package sim

import (
	"testing"

	"pracsim/internal/ticks"
)

// BenchmarkEngineDenseTickers: 64 tickers firing ~2.3 times per tick on
// average, so almost every step fires several of them. The per-step scan
// reads every ticker once while the heap engine it replaced paid a
// full-depth root replacement per fire; the scan is ~1.6x faster here.
func BenchmarkEngineDenseTickers(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		var fired int64
		for t := 0; t < 64; t++ {
			e.AddTicker(ticks.T(7+t), ticks.T(t), func(ticks.T) { fired++ })
		}
		e.Run(100_000)
		if fired == 0 {
			b.Fatal("no ticks")
		}
	}
}

// BenchmarkEngineSparseTickers is the scan's worst case: 256 mostly-idle
// periodic timers, where each step reads all 256 to fire one. The heap
// engine it replaced paid only log n per fire and was ~4.8x faster here;
// no shipped configuration runs more than six tickers.
func BenchmarkEngineSparseTickers(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		var fired int64
		for t := 0; t < 256; t++ {
			e.AddTicker(ticks.T(1009+7*t), ticks.T(13*t), func(ticks.T) { fired++ })
		}
		e.Run(1_000_000)
		if fired == 0 {
			b.Fatal("no ticks")
		}
	}
}

// BenchmarkEngineSystemShape is the ticker set of a Table 3 System, the
// shape every Fig. 11 cell runs: a controller at period 4, registered
// first, then four cores at period 1. Each core defers itself over short
// idle stretches with a known end and parks on a miss; the controller
// wakes a parked core through RescheduleTicker once its fill is due, and
// the core then fires in that same step, as a core woken by a completion
// does.
func BenchmarkEngineSystemShape(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		var fired int64
		var cores [4]*Ticker
		var fillAt [4]ticks.T
		e.AddTicker(4, 0, func(now ticks.T) {
			fired++
			for c, t := range cores {
				if t.paused && fillAt[c] <= now {
					e.RescheduleTicker(t, now)
				}
			}
		})
		for c := range cores {
			ran := 0
			cores[c] = e.AddTicker(1, 0, func(now ticks.T) {
				fired++
				ran++
				switch {
				case ran%16 == 0: // miss: park until the controller serves it
					fillAt[c] = now + ticks.T(20+8*c)
					e.PauseTicker(cores[c])
				case ran%5 == 0: // idle stretch with a known end: defer
					e.RescheduleTicker(cores[c], now+ticks.T(3+c))
				}
			})
		}
		e.Run(200_000)
		if fired == 0 {
			b.Fatal("no ticks")
		}
	}
}

// benchmarkSystemClock runs the paper's system on a memory-bound
// workload under one clocking and reports engine steps and elided cycles
// as metrics — the idle-heavy regime demand-driven clocking targets.
func benchmarkSystemClock(b *testing.B, clock Clocking) {
	b.ReportAllocs()
	var steps, elided, perCycleSteps int64
	for i := 0; i < b.N; i++ {
		cfg := DefaultSystemConfig(1024)
		cfg.Workload = "433.milc"
		cfg.Clock = clock
		sys, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Run(5_000, 15_000)
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Telemetry.EngineSteps
		elided += res.Telemetry.ElidedCycles()
		perCycleSteps += int64(res.Telemetry.SimTicks)
	}
	b.ReportMetric(float64(steps)/float64(b.N), "engine-steps")
	b.ReportMetric(float64(elided)/float64(b.N), "elided-cycles")
	b.ReportMetric(float64(perCycleSteps)/float64(steps), "step-reduction-x")
}

// BenchmarkEngineElisionDemand vs BenchmarkEngineElisionPerCycle is the
// acceptance pair: on an idle-heavy workload the demand clocking must
// show >= 2x fewer engine steps (see step-reduction-x) at bit-identical
// output (TestDifferentialDeterminism).
func BenchmarkEngineElisionDemand(b *testing.B)   { benchmarkSystemClock(b, ClockDemand) }
func BenchmarkEngineElisionPerCycle(b *testing.B) { benchmarkSystemClock(b, ClockPerCycle) }

// BenchmarkEngineEventChurn measures one-shot scheduling throughput:
// every fired event schedules the next, so the heap sees a
// push/pop per step. The concrete-typed heap makes the push
// allocation-free beyond the closure itself.
func BenchmarkEngineEventChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		var fired int64
		var reschedule func(now ticks.T)
		reschedule = func(now ticks.T) {
			fired++
			e.After(3, reschedule)
		}
		for k := 0; k < 16; k++ {
			e.After(ticks.T(k), reschedule)
		}
		e.Run(50_000)
		if fired == 0 {
			b.Fatal("no events")
		}
	}
}
