package sim

import (
	"testing"

	"pracsim/internal/ticks"
)

func TestPauseStopsFiringResumeRealigns(t *testing.T) {
	e := NewEngine()
	var times []ticks.T
	var tk *Ticker
	tk = e.AddTicker(4, 0, func(now ticks.T) {
		times = append(times, now)
		if now == 8 {
			e.PauseTicker(tk)
		}
	})
	e.Run(40)
	// Fired at 0, 4, 8 then paused.
	if len(times) != 3 || times[2] != 8 {
		t.Fatalf("fired at %v, want [0 4 8]", times)
	}
	// Resume at an off-grid instant: the next fire must realign to the
	// ticker's period grid, never land between slots.
	e.RescheduleTicker(tk, 53)
	e.Run(70)
	want := []ticks.T{0, 4, 8, 56, 60, 64, 68}
	if len(times) != len(want) {
		t.Fatalf("fired at %v, want %v after off-grid resume at 53", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fired at %v, want %v", times, want)
		}
	}
}

// TestWakeBetweenRunsSkipsSpentSlot covers a wakeup from outside Run:
// after Run(8) the timestep 8 is over, and a ticker ticking all along
// would have fired there before the wakeup, so a parked ticker woken at 8
// must next fire at 12, not at 8 a second time. Before the first Run no
// timestep is spent, and a wakeup at 0 fires at 0.
func TestWakeBetweenRunsSkipsSpentSlot(t *testing.T) {
	e := NewEngine()
	var times []ticks.T
	var tk *Ticker
	tk = e.AddTicker(4, 0, func(now ticks.T) {
		times = append(times, now)
		e.PauseTicker(tk)
	})
	e.PauseTicker(tk)
	e.RescheduleTicker(tk, 0) // before any Run: slot 0 is still open
	e.Run(8)
	e.RescheduleTicker(tk, e.Now())
	e.Run(20)
	want := []ticks.T{0, 12}
	if len(times) != len(want) || times[0] != want[0] || times[1] != want[1] {
		t.Fatalf("fired at %v, want %v", times, want)
	}
}

func TestPauseTwiceAndResumeRemovedTickerAreSafe(t *testing.T) {
	e := NewEngine()
	count := 0
	tk := e.AddTicker(2, 0, func(ticks.T) { count++ })
	e.PauseTicker(tk)
	e.PauseTicker(tk) // double pause: no-op
	e.Run(10)
	if count != 0 {
		t.Fatalf("paused ticker fired %d times", count)
	}
	// Removing a paused ticker must stick: a later resume is a no-op.
	e.RemoveTicker(tk)
	e.RescheduleTicker(tk, 20)
	e.Run(40)
	if count != 0 {
		t.Fatalf("removed ticker fired %d times after resume attempt", count)
	}
}

func TestRemoveWhilePausedThenRemoveAgain(t *testing.T) {
	e := NewEngine()
	tk := e.AddTicker(3, 0, func(ticks.T) {})
	e.PauseTicker(tk)
	e.RemoveTicker(tk)
	e.RemoveTicker(tk) // idempotent
	e.PauseTicker(tk)  // pausing a removed ticker: no-op
	e.Run(30)          // must not panic or fire
}

func TestDeferSkipsIdleWindowAndKeepsGrid(t *testing.T) {
	e := NewEngine()
	var times []ticks.T
	var tk *Ticker
	tk = e.AddTicker(4, 0, func(now ticks.T) {
		times = append(times, now)
		if now == 4 {
			e.RescheduleTicker(tk, 30) // skip ahead; 30 is off-grid
		}
	})
	e.Run(40)
	want := []ticks.T{0, 4, 32, 36, 40}
	if len(times) != len(want) {
		t.Fatalf("fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fired at %v, want %v", times, want)
		}
	}
}

// TestEventInSkippedWindowCanWakeTicker is the event-scheduled-into-a-
// skipped-window edge: the engine fast-forwards over the parked gap, the
// event still fires at its exact time, and waking the ticker from inside
// the event fires the ticker at that same timestep — events precede
// tickers, so the slot has not been passed.
func TestEventInSkippedWindowCanWakeTicker(t *testing.T) {
	e := NewEngine()
	var fired []ticks.T
	var tk *Ticker
	tk = e.AddTicker(4, 0, func(now ticks.T) {
		fired = append(fired, now)
		if now == 0 {
			e.PauseTicker(tk)
		}
	})
	var eventAt ticks.T = -1
	e.At(18, func(now ticks.T) {
		eventAt = now
		e.RescheduleTicker(tk, now) // wake from event context
	})
	e.Run(25)
	if eventAt != 18 {
		t.Fatalf("event fired at %v, want 18 (events must fire inside skipped windows)", eventAt)
	}
	// Grid slot for period 4 at/after 18 is 20.
	if len(fired) != 3 || fired[1] != 20 || fired[2] != 24 {
		t.Fatalf("ticker fired at %v, want [0 20 24]", fired)
	}
}

// TestWakeFromLaterTickerSkipsPassedSlot pins the ordering rule: a ticker
// woken at a shared timestep by a later-registered ticker must not fire
// at that timestep (its registration-order slot has already passed), but
// a wake for a future time lands normally.
func TestWakeFromLaterTickerSkipsPassedSlot(t *testing.T) {
	e := NewEngine()
	var order []string
	var first *Ticker
	first = e.AddTicker(4, 0, func(now ticks.T) {
		order = append(order, "A@"+now.String())
		if now == 0 {
			e.PauseTicker(first)
		}
	})
	e.AddTicker(4, 0, func(now ticks.T) {
		order = append(order, "B@"+now.String())
		if now == 8 {
			e.RescheduleTicker(first, now) // A's slot at 8 already passed
		}
	})
	e.Run(13)
	want := []string{"A@0.00ns", "B@0.00ns", "B@1.00ns", "B@2.00ns", "A@3.00ns", "B@3.00ns"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestFastForwardWithAllTickersPaused: a fully-parked system must jump
// straight to the deadline in O(1), exactly like an empty engine.
func TestFastForwardWithAllTickersPaused(t *testing.T) {
	e := NewEngine()
	count := 0
	tk := e.AddTicker(1, 0, func(ticks.T) { count++ })
	e.PauseTicker(tk)
	steps := e.Steps()
	e.Run(1_000_000_000)
	if e.Now() != 1_000_000_000 {
		t.Fatalf("Now() = %v", e.Now())
	}
	if count != 0 {
		t.Fatalf("paused ticker fired %d times", count)
	}
	if e.Steps() != steps {
		t.Fatalf("engine processed %d steps across an empty window", e.Steps()-steps)
	}
}

// TestStepsCountsProcessedTimesteps: one step per distinct time with work.
func TestStepsCountsProcessedTimesteps(t *testing.T) {
	e := NewEngine()
	e.AddTicker(10, 0, func(ticks.T) {})
	e.At(5, func(ticks.T) {})
	e.At(10, func(ticks.T) {}) // same timestep as a ticker fire: one step
	e.Run(25)
	if e.Steps() != 4 { // t = 0, 5, 10, 20
		t.Fatalf("Steps() = %d, want 4", e.Steps())
	}
}

// TestResumeBeforeFirstFireClampsToGridAnchor: rescheduling to a time
// before the ticker's phase anchor must land on the anchor, not earlier.
func TestResumeBeforeFirstFireClampsToGridAnchor(t *testing.T) {
	e := NewEngine()
	var first ticks.T = -1
	var tk *Ticker
	tk = e.AddTicker(10, 7, func(now ticks.T) {
		if first < 0 {
			first = now
		}
	})
	e.PauseTicker(tk)
	e.RescheduleTicker(tk, 0)
	e.Run(40)
	if first != 7 {
		t.Fatalf("first fire at %v, want 7 (the phase anchor)", first)
	}
}
