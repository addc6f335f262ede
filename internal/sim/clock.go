package sim

import (
	"pracsim/internal/memctrl"
	"pracsim/internal/ticks"
)

// Clocking selects how the engine drives component tickers.
type Clocking int

const (
	// ClockDemand elides provably-idle cycles: components report a
	// conservative "next time I can possibly do work" after each tick,
	// their tickers are deferred or paused across the dead window, and
	// events (request enqueue, fill completion, maintenance accrual)
	// re-arm them. Results are bit-identical to ClockPerCycle — enforced
	// by RunDifferential and the differential determinism tests — while
	// long stall and quiet phases cost O(1) instead of O(cycles).
	ClockDemand Clocking = iota
	// ClockPerCycle ticks every component every cycle: the reference
	// model demand-driven clocking is verified against.
	ClockPerCycle
)

// String names the clocking for reports.
func (c Clocking) String() string {
	if c == ClockPerCycle {
		return "per-cycle"
	}
	return "demand"
}

// ControllerClock drives one memory controller (plus an optional pre-tick
// hook, e.g. the LLC adapter's writeback retry) from an engine ticker
// with demand-driven idle elision: after each tick it takes the
// controller's next possible work time — exact from the tick itself when
// the tick issued nothing, from NextWork when it issued a command — and
// skips the ticker straight there, or parks it entirely when the
// controller is quiescent. A request arriving in the meantime pulls the
// ticker back up through the controller's waker. Fire times never leave
// the controller's cycle grid, so the command schedule is bit-identical
// to per-cycle ticking.
type ControllerClock struct {
	eng  *Engine
	ctrl *memctrl.Controller
	// pre runs before each controller tick; it reports whether the
	// domain may park afterwards (false = it still holds buffered work,
	// such as refused writebacks awaiting retry).
	pre func(now ticks.T) bool

	ticker   *Ticker
	perCycle bool
	parked   bool // ticker paused: wake on enqueue only
	deferred bool // ticker skipped to a deadline: enqueue may pull it up
	lastTick ticks.T
	elided   int64
}

// NewControllerClock attaches a controller to the engine. pre may be nil.
func NewControllerClock(eng *Engine, ctrl *memctrl.Controller, pre func(now ticks.T) bool, clock Clocking) *ControllerClock {
	cc := &ControllerClock{
		eng:      eng,
		ctrl:     ctrl,
		pre:      pre,
		perCycle: clock == ClockPerCycle,
		lastTick: -memctrl.CyclePeriod,
	}
	cc.ticker = eng.AddTicker(memctrl.CyclePeriod, 0, cc.tick)
	if !cc.perCycle {
		ctrl.SetWaker(cc.wake)
	}
	return cc
}

// RetrySlot reports the first cycle at which a memory access refused at
// now can usefully be retried: the controller's next grid slot. MSHRs and
// controller queue entries are only released by controller activity, so
// retries between controller cycles are provably futile. Cores inject
// this as their SetRetrySlot hook.
func (cc *ControllerClock) RetrySlot(now ticks.T) ticks.T {
	next := now + 1
	if rem := next % memctrl.CyclePeriod; rem != 0 {
		next += memctrl.CyclePeriod - rem
	}
	return next
}

// Elided reports how many controller cycles have been skipped up to now,
// including a currently open skip window.
func (cc *ControllerClock) Elided(now ticks.T) int64 {
	n := cc.elided
	if gap := (now - cc.lastTick) / memctrl.CyclePeriod; gap > 1 {
		n += int64(gap - 1)
	}
	return n
}

func (cc *ControllerClock) tick(now ticks.T) {
	if gap := (now - cc.lastTick) / memctrl.CyclePeriod; gap > 1 {
		cc.elided += int64(gap - 1)
	}
	cc.lastTick = now
	cc.deferred = false
	mayPark := true
	if cc.pre != nil {
		mayPark = cc.pre(now)
	}
	next, idle := cc.ctrl.Tick(now)
	if cc.perCycle || !mayPark {
		return
	}
	if !idle {
		next = cc.ctrl.NextWork(now)
	}
	if next <= now+memctrl.CyclePeriod {
		return
	}
	if next == ticks.Never {
		cc.eng.PauseTicker(cc.ticker)
		cc.parked = true
	} else {
		cc.eng.RescheduleTicker(cc.ticker, next)
		cc.deferred = true
	}
}

// wake is the controller's enqueue hook: pull a parked or deferred ticker
// up to the next slot the per-cycle baseline would service the request at.
// That slot derives from engine time, not the request's nominal arrival
// time: cache lookup latencies are folded into the fetch chain
// synchronously, so a request can carry an arrival stamp ahead of the
// present — but it sits in the queue already, and the per-cycle
// controller would serve it at its next real tick.
func (cc *ControllerClock) wake(ticks.T) {
	if !cc.parked && !cc.deferred {
		return
	}
	cc.parked, cc.deferred = false, false
	cc.eng.RescheduleTicker(cc.ticker, cc.eng.Now())
}
