// Package sim provides the discrete-time engine that drives all simulator
// components, plus the System assembly that wires cores, caches, the memory
// controller and DRAM into the paper's Table 3 configuration.
package sim

import (
	"pracsim/internal/ticks"
)

// Engine advances simulated time, driving periodic tickers (cores, the
// memory controller) and one-shot scheduled events. Components are strictly
// single-threaded: all callbacks run on the caller's goroutine in time order.
//
// Both tickers and events live in binary min-heaps keyed by next fire
// time, so finding the next timestep is O(1) and every schedule or fire
// is O(log n) — the hot loop never scans the full ticker set. The heaps
// are concrete-typed with hand-rolled sift routines: pushing an event
// does not box it into an interface, so the per-request scheduling that
// dominates Engine work allocates nothing.
type Engine struct {
	now     ticks.T
	tickers tickerHeap
	events  eventHeap
	nextID  int
	stopped bool
	steps   int64
	firing  int // id of the ticker currently running its callback, -1 otherwise
	// done is the last timestep Run finished processing: every ticker slot
	// up to it is spent, even for a ticker that was parked or deferred.
	done ticks.T
}

// Ticker is a handle to a periodic callback, returned by AddTicker and
// accepted by RemoveTicker, PauseTicker and RescheduleTicker.
type Ticker struct {
	period ticks.T
	phase  ticks.T // first fire time mod period: the ticker's cycle grid
	id     int     // registration order; break ties at equal fire times
	pos    int     // index in the ticker heap, -1 while paused or removed
	paused bool    // parked by PauseTicker: off the heap but resumable
	fn     func(now ticks.T)
}

type event struct {
	at  ticks.T
	seq int64
	fn  func(now ticks.T)
}

// eventHeap is a concrete-typed binary min-heap ordered by (at, seq).
type eventHeap struct {
	items []event
	seq   int64
}

func (h *eventHeap) less(i, j int) bool {
	if h.items[i].at != h.items[j].at {
		return h.items[i].at < h.items[j].at
	}
	return h.items[i].seq < h.items[j].seq
}

func (h *eventHeap) push(ev event) {
	h.items = append(h.items, ev)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	items := h.items
	n := len(items) - 1
	top := items[0]
	items[0] = items[n]
	items[n] = event{} // release the closure so the backing array doesn't pin it
	h.items = items[:n]
	h.siftDown(0)
	return top
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.items)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && h.less(r, child) {
			child = r
		}
		if !h.less(child, i) {
			return
		}
		h.items[i], h.items[child] = h.items[child], h.items[i]
		i = child
	}
}

// tickerHeap is a binary min-heap of live tickers ordered by
// (next fire time, registration order), with position bookkeeping so
// RemoveTicker is O(log n). The sort keys live inline in the slots, so
// sift comparisons stay on contiguous memory instead of chasing Ticker
// pointers.
type tickerHeap struct {
	items []tickerSlot
}

type tickerSlot struct {
	next ticks.T
	id   int
	t    *Ticker
}

func (h *tickerHeap) less(i, j int) bool {
	return h.slotLess(&h.items[i], &h.items[j])
}

func (h *tickerHeap) slotLess(a, b *tickerSlot) bool {
	if a.next != b.next {
		return a.next < b.next
	}
	return a.id < b.id
}

func (h *tickerHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].t.pos = i
	h.items[j].t.pos = j
}

func (h *tickerHeap) push(t *Ticker, next ticks.T) {
	t.pos = len(h.items)
	h.items = append(h.items, tickerSlot{next: next, id: t.id, t: t})
	h.siftUp(t.pos)
}

func (h *tickerHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// siftDown percolates a hole instead of swapping pairwise: children
// shift up one write at a time and the displaced slot lands once at its
// final position.
func (h *tickerHeap) siftDown(i int) {
	n := len(h.items)
	moving := h.items[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.slotLess(&h.items[r], &h.items[child]) {
			child = r
		}
		if !h.slotLess(&h.items[child], &moving) {
			break
		}
		h.items[i] = h.items[child]
		h.items[i].t.pos = i
		i = child
	}
	h.items[i] = moving
	moving.t.pos = i
}

func (h *tickerHeap) fix(i int) {
	h.siftDown(i)
	h.siftUp(i)
}

func (h *tickerHeap) remove(t *Ticker) {
	i := t.pos
	if i < 0 {
		return
	}
	n := len(h.items) - 1
	if i != n {
		h.swap(i, n)
	}
	h.items[n] = tickerSlot{}
	h.items = h.items[:n]
	t.pos = -1
	if i < n {
		h.fix(i)
	}
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{firing: -1, done: -1} }

// Now reports the current simulated time.
func (e *Engine) Now() ticks.T { return e.now }

// Steps reports how many distinct timesteps Run has processed — the
// engine-work metric that demand-driven clocking shrinks. A per-cycle
// system pays one step per cycle; an eliding system pays one step per
// cycle in which some component actually had work.
func (e *Engine) Steps() int64 { return e.steps }

// AddTicker registers fn to run every period ticks, starting at time offset
// (clamped to the present on a warm engine, so time never runs backwards),
// and returns a handle RemoveTicker accepts. Tickers due at the same
// timestep fire in registration order, after that timestep's one-shot
// events.
func (e *Engine) AddTicker(period, offset ticks.T, fn func(now ticks.T)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	if offset < e.now {
		offset = e.now
	}
	t := &Ticker{period: period, phase: offset % period, id: e.nextID, fn: fn}
	e.nextID++
	e.tickers.push(t, offset)
	return t
}

// RemoveTicker cancels a ticker; removing one twice, or removing a paused
// ticker, is safe.
func (e *Engine) RemoveTicker(t *Ticker) {
	t.paused = false
	e.tickers.remove(t)
}

// PauseTicker parks a ticker: it leaves the schedule but stays resumable
// via RescheduleTicker. Pausing an already-paused or removed ticker is a
// no-op. Components use this when they are quiescent with no computable
// deadline — a wakeup event must call RescheduleTicker to re-arm them.
func (e *Engine) PauseTicker(t *Ticker) {
	if t.pos < 0 {
		return
	}
	e.tickers.remove(t)
	t.paused = true
}

// RescheduleTicker moves t's next fire to the earliest slot of its period
// grid at or after at that this timestep has not already passed. Fire
// times stay congruent to the ticker's original offset modulo its period,
// so a rescheduled ticker fires exactly where the per-cycle baseline
// would have ticked; and a slot at the current timestep whose turn in
// registration order has already gone by is never reused, so wakeups
// triggered by later-registered tickers land on the next slot — again
// exactly what a ticker that had been ticking all along would observe.
// The same holds between Run calls: once Run has returned, its final
// timestep is over, and a wakeup from outside Run lands one period after
// it.
//
// It serves both directions: deferring past provably-idle cycles
// (fast-forward) and pulling a deferred or paused ticker back up when an
// event creates work (wakeup). Rescheduling a removed ticker is a no-op.
func (e *Engine) RescheduleTicker(t *Ticker, at ticks.T) {
	next := e.nextSlot(t, at)
	switch {
	case t.paused:
		t.paused = false
		e.tickers.push(t, next)
	case t.pos >= 0:
		e.tickers.items[t.pos].next = next
		e.tickers.fix(t.pos)
	}
}

// nextSlot computes the earliest grid-aligned fire time >= at that has
// not already been passed over during the current timestep.
func (e *Engine) nextSlot(t *Ticker, at ticks.T) ticks.T {
	if at < e.now {
		at = e.now
	}
	next := at
	if rem := (next - t.phase) % t.period; rem < 0 {
		next -= rem // before the grid anchor: clamp up to it
	} else if rem != 0 {
		next += t.period - rem
	}
	if next == e.now && e.firing >= 0 && t.id < e.firing {
		// The tick phase of this timestep already moved past t's slot
		// (tickers fire in registration order): the per-cycle baseline
		// would next serve t one period later.
		next += t.period
	}
	if next <= e.done {
		// Called between Run calls, at the timestep the last Run finished:
		// the baseline's tick there has already happened.
		next += t.period
	}
	return next
}

// After schedules fn to run once, delay ticks from now.
func (e *Engine) After(delay ticks.T, fn func(now ticks.T)) {
	e.events.seq++
	e.events.push(event{at: e.now + delay, seq: e.events.seq, fn: fn})
}

// At schedules fn to run once at absolute time at (which must not be in the
// past).
func (e *Engine) At(at ticks.T, fn func(now ticks.T)) {
	if at < e.now {
		panic("sim: cannot schedule event in the past")
	}
	e.events.seq++
	e.events.push(event{at: at, seq: e.events.seq, fn: fn})
}

// Stop makes the current Run call return after the present timestamp
// finishes processing.
func (e *Engine) Stop() { e.stopped = true }

// Run advances time until the deadline (inclusive of work scheduled exactly
// at it). Idle gaps with no tickers or events are skipped in O(1).
func (e *Engine) Run(until ticks.T) {
	e.stopped = false
	for !e.stopped {
		next := until + 1
		if len(e.tickers.items) > 0 && e.tickers.items[0].next < next {
			next = e.tickers.items[0].next
		}
		if len(e.events.items) > 0 && e.events.items[0].at < next {
			next = e.events.items[0].at
		}
		if next > until {
			e.now = until
			e.done = until
			return
		}
		e.now = next
		e.steps++
		for len(e.events.items) > 0 && e.events.items[0].at == next {
			ev := e.events.pop()
			ev.fn(next)
		}
		for len(e.tickers.items) > 0 && e.tickers.items[0].next == next {
			t := e.tickers.items[0].t
			e.tickers.items[0].next += t.period
			e.tickers.fix(0)
			e.firing = t.id
			t.fn(next)
		}
		e.firing = -1
	}
	e.done = e.now // stopped: the present timestep finished processing
}
