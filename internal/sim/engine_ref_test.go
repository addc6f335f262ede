package sim

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"pracsim/internal/ticks"
)

// refEngine keeps its tickers in a binary min-heap keyed by (next fire
// time, registration order), the design Engine's scan replaced. It is the
// reference model for TestEngineMatchesReference and
// FuzzEngineMatchesReference: Engine must fire the same callbacks at the
// same times and count the same steps. Both engines use the package's
// eventHeap, so only the ticker schedule is compared against a second
// implementation.
type refEngine struct {
	now     ticks.T
	tickers refTickerHeap
	events  eventHeap
	nextID  int
	stopped bool
	steps   int64
	firing  int
	done    ticks.T
}

type refTicker struct {
	period ticks.T
	phase  ticks.T
	id     int
	pos    int // index in the ticker heap, -1 while paused or removed
	paused bool
	fn     func(now ticks.T)
}

type refTickerHeap struct {
	items []refTickerSlot
}

type refTickerSlot struct {
	next ticks.T
	id   int
	t    *refTicker
}

func (h *refTickerHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.next != b.next {
		return a.next < b.next
	}
	return a.id < b.id
}

func (h *refTickerHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].t.pos = i
	h.items[j].t.pos = j
}

func (h *refTickerHeap) push(t *refTicker, next ticks.T) {
	t.pos = len(h.items)
	h.items = append(h.items, refTickerSlot{next: next, id: t.id, t: t})
	h.siftUp(t.pos)
}

func (h *refTickerHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *refTickerHeap) siftDown(i int) {
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
		h.swap(i, child)
		i = child
	}
}

func (h *refTickerHeap) fix(i int) {
	h.siftDown(i)
	h.siftUp(i)
}

func (h *refTickerHeap) remove(t *refTicker) {
	i := t.pos
	if i < 0 {
		return
	}
	n := len(h.items) - 1
	if i != n {
		h.swap(i, n)
	}
	h.items = h.items[:n]
	t.pos = -1
	if i < n {
		h.fix(i)
	}
}

func newRefEngine() *refEngine { return &refEngine{firing: -1, done: -1} }

func (e *refEngine) AddTicker(period, offset ticks.T, fn func(now ticks.T)) *refTicker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	if offset < e.now {
		offset = e.now
	}
	t := &refTicker{period: period, phase: offset % period, id: e.nextID, fn: fn}
	e.nextID++
	e.tickers.push(t, offset)
	return t
}

func (e *refEngine) RemoveTicker(t *refTicker) {
	t.paused = false
	e.tickers.remove(t)
}

func (e *refEngine) PauseTicker(t *refTicker) {
	if t.pos < 0 {
		return
	}
	e.tickers.remove(t)
	t.paused = true
}

func (e *refEngine) RescheduleTicker(t *refTicker, at ticks.T) {
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

func (e *refEngine) nextSlot(t *refTicker, at ticks.T) ticks.T {
	if at < e.now {
		at = e.now
	}
	next := at
	if rem := (next - t.phase) % t.period; rem < 0 {
		next -= rem
	} else if rem != 0 {
		next += t.period - rem
	}
	if next == e.now && e.firing >= 0 && t.id < e.firing {
		next += t.period
	}
	if next <= e.done {
		next += t.period
	}
	return next
}

func (e *refEngine) After(delay ticks.T, fn func(now ticks.T)) {
	e.events.seq++
	e.events.push(event{at: e.now + delay, seq: e.events.seq, fn: fn})
}

func (e *refEngine) At(at ticks.T, fn func(now ticks.T)) {
	if at < e.now {
		panic("sim: cannot schedule event in the past")
	}
	e.events.seq++
	e.events.push(event{at: at, seq: e.events.seq, fn: fn})
}

func (e *refEngine) Stop() { e.stopped = true }

func (e *refEngine) Run(until ticks.T) {
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
	e.done = e.now
}

// diffEngine is one side of the differential test: an engine whose
// tickers are named by registration number.
type diffEngine interface {
	add(period, offset ticks.T, fn func(ticks.T))
	remove(i int)
	pause(i int)
	reschedule(i int, at ticks.T)
	due(i int) bool // ticker i is scheduled to fire at the current time
	at(at ticks.T, fn func(ticks.T))
	after(delay ticks.T, fn func(ticks.T))
	stop()
	run(until ticks.T)
	now() ticks.T
	steps() int64
}

type scanSide struct {
	e  *Engine
	ts []*Ticker
}

func (s *scanSide) add(p, o ticks.T, fn func(ticks.T)) { s.ts = append(s.ts, s.e.AddTicker(p, o, fn)) }
func (s *scanSide) remove(i int)                       { s.e.RemoveTicker(s.ts[i]) }
func (s *scanSide) pause(i int)                        { s.e.PauseTicker(s.ts[i]) }
func (s *scanSide) reschedule(i int, at ticks.T)       { s.e.RescheduleTicker(s.ts[i], at) }
func (s *scanSide) due(i int) bool                     { return s.ts[i].next == s.e.Now() }
func (s *scanSide) at(at ticks.T, fn func(ticks.T))    { s.e.At(at, fn) }
func (s *scanSide) after(d ticks.T, fn func(ticks.T))  { s.e.After(d, fn) }
func (s *scanSide) stop()                              { s.e.Stop() }
func (s *scanSide) run(until ticks.T)                  { s.e.Run(until) }
func (s *scanSide) now() ticks.T                       { return s.e.Now() }
func (s *scanSide) steps() int64                       { return s.e.Steps() }

type heapSide struct {
	e  *refEngine
	ts []*refTicker
}

func (s *heapSide) add(p, o ticks.T, fn func(ticks.T)) { s.ts = append(s.ts, s.e.AddTicker(p, o, fn)) }
func (s *heapSide) remove(i int)                       { s.e.RemoveTicker(s.ts[i]) }
func (s *heapSide) pause(i int)                        { s.e.PauseTicker(s.ts[i]) }
func (s *heapSide) reschedule(i int, at ticks.T)       { s.e.RescheduleTicker(s.ts[i], at) }
func (s *heapSide) due(i int) bool {
	t := s.ts[i]
	return t.pos >= 0 && s.e.tickers.items[t.pos].next == s.e.now
}
func (s *heapSide) at(at ticks.T, fn func(ticks.T))   { s.e.At(at, fn) }
func (s *heapSide) after(d ticks.T, fn func(ticks.T)) { s.e.After(d, fn) }
func (s *heapSide) stop()                             { s.e.Stop() }
func (s *heapSide) run(until ticks.T)                 { s.e.Run(until) }
func (s *heapSide) now() ticks.T                      { return s.e.now }
func (s *heapSide) steps() int64                      { return s.e.steps }

// fire is one entry of an engine's observable history: ticker or event
// callback id ran at time at, or (kind 'r') a Run call returned at time at
// after id engine steps in total.
type fire struct {
	at   ticks.T
	kind byte // 't' ticker, 'e' event, 'r' Run returned
	id   int
}

// engineCoverage counts the schedule edge cases a stream reached.
type engineCoverage struct {
	rearmAtNow     int // a ticker re-armed itself at now and fired again
	removeDueLater int // a ticker removed a later, still-due ticker mid-step
	addAtNow       int // a callback added a ticker with offset now
	lateWake       int // a ticker woke an earlier-registered one at now
	betweenRuns    int // Reschedule or Pause at the spent timestep after a Run
}

const (
	maxDiffTickers = 12
	maxDiffFires   = 4000 // callbacks stop acting past this, so every stream ends
)

// engineWorld drives one engine with a decoded operation stream. Callback
// actions come from rng; both sides seed it alike, so while their
// histories agree they make the same calls.
type engineWorld struct {
	eng     diffEngine
	rng     *rand.Rand
	log     []fire
	tickers int
	events  int
	cover   engineCoverage
}

func (w *engineWorld) addTicker(period, offset ticks.T) {
	id := w.tickers
	w.tickers++
	w.eng.add(period, offset, func(now ticks.T) {
		f := fire{now, 't', id}
		if n := len(w.log); n > 0 && w.log[n-1] == f {
			w.cover.rearmAtNow++
		}
		w.log = append(w.log, f)
		w.act(now, id)
	})
}

func (w *engineWorld) eventFn() func(ticks.T) {
	id := w.events
	w.events++
	return func(now ticks.T) {
		w.log = append(w.log, fire{now, 'e', id})
		w.act(now, -1)
	}
}

// delay draws a short offset that is zero about a third of the time, so
// same-timestep cases come up often.
func (w *engineWorld) delay() ticks.T {
	if k := w.rng.Intn(12); k >= 4 {
		return ticks.T(k - 3)
	}
	return 0
}

// act is what a callback does after logging itself. self is the ticker's
// registration number, or -1 for an event.
func (w *engineWorld) act(now ticks.T, self int) {
	if len(w.log) > maxDiffFires {
		return
	}
	other := -1
	if w.tickers > 0 {
		other = w.rng.Intn(w.tickers)
	}
	switch r := w.rng.Intn(40); {
	case r < 20: // most callbacks only tick
	case r == 20 && self >= 0:
		w.eng.reschedule(self, now+w.delay())
	case r == 21 && self >= 0:
		w.eng.pause(self)
	case r == 22 && self >= 0:
		w.eng.remove(self)
	case r < 25 && other >= 0:
		if self >= 0 && other > self && w.eng.due(other) {
			w.cover.removeDueLater++
		}
		w.eng.remove(other)
	case r < 27 && other >= 0:
		w.eng.pause(other)
	case r < 31 && other >= 0:
		at := now + w.delay()
		if other < self && at == now {
			w.cover.lateWake++
		}
		w.eng.reschedule(other, at)
	case r < 33:
		if w.tickers < maxDiffTickers {
			offset := now + w.delay()
			if offset == now {
				w.cover.addAtNow++
			}
			w.addTicker(ticks.T(1+w.rng.Intn(8)), offset)
		}
	case r < 36:
		w.eng.at(now+w.delay(), w.eventFn())
	case r < 39:
		w.eng.after(w.delay(), w.eventFn())
	default:
		w.eng.stop()
	}
}

// playEngine decodes data into an operation stream and applies it to eng.
// The first 8 bytes seed the callbacks' choices; each later op is one
// byte plus its operands. A missing byte reads as zero.
func playEngine(eng diffEngine, data []byte) *engineWorld {
	var seed [8]byte
	n := copy(seed[:], data)
	data = data[n:]
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	w := &engineWorld{eng: eng, rng: rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))}
	ran := false
	for len(data) > 0 {
		now := eng.now()
		op, arg := next()%9, next()
		target := -1
		if w.tickers > 0 {
			target = arg % w.tickers
		}
		switch {
		case op == 0 && w.tickers < maxDiffTickers:
			// Offsets up to 4 in the past exercise the clamp to now.
			w.addTicker(ticks.T(1+arg%8), max(0, now+ticks.T(next()%16)-4))
		case op == 1 && target >= 0:
			w.eng.remove(target)
		case op == 2 && target >= 0:
			if ran {
				w.cover.betweenRuns++
			}
			w.eng.pause(target)
		case op == 3 && target >= 0:
			at := now + ticks.T(next()%8) - 2
			if ran && at <= now {
				w.cover.betweenRuns++
			}
			w.eng.reschedule(target, at)
		case op == 4:
			w.eng.at(now+ticks.T(arg%32), w.eventFn())
		case op == 5:
			w.eng.after(ticks.T(arg%32), w.eventFn())
		case op == 6:
			w.eng.stop() // outside Run: the next Run clears it
		case op >= 7:
			w.run(now + ticks.T(arg%64))
			ran = true
		}
	}
	w.run(eng.now() + 64)
	return w
}

func (w *engineWorld) run(until ticks.T) {
	w.eng.run(until)
	w.log = append(w.log, fire{w.eng.now(), 'r', int(w.eng.steps())})
}

// matchEngines plays data on both engines and fails t at the first
// difference in their histories.
func matchEngines(t *testing.T, data []byte) engineCoverage {
	t.Helper()
	scan := playEngine(&scanSide{e: NewEngine()}, data)
	ref := playEngine(&heapSide{e: newRefEngine()}, data)
	for i := 0; i < max(len(scan.log), len(ref.log)); i++ {
		if i >= len(scan.log) || i >= len(ref.log) || scan.log[i] != ref.log[i] {
			lo := max(0, i-5)
			t.Fatalf("histories diverge at entry %d (of %d vs %d):\n scan %v\n heap %v",
				i, len(scan.log), len(ref.log), scan.log[lo:min(i+5, len(scan.log))], ref.log[lo:min(i+5, len(ref.log))])
		}
	}
	return scan.cover
}

// engineStream returns a seeded random operation stream.
func engineStream(seed int64, ops int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 8+3*ops)
	rng.Read(data)
	return data
}

// TestEngineMatchesReference drives the scan engine and the heap
// reference with seeded streams of AddTicker, RemoveTicker, PauseTicker,
// RescheduleTicker, At, After, Stop and Run calls, issued both between
// Run calls and from inside ticker and event callbacks, and requires
// identical (time, callback) histories, Now and Steps after every Run.
// The streams must reach every same-timestep edge case the two engines
// resolve differently inside.
func TestEngineMatchesReference(t *testing.T) {
	var total engineCoverage
	for seed := int64(1); seed <= 200; seed++ {
		c := matchEngines(t, engineStream(seed, 60))
		total.rearmAtNow += c.rearmAtNow
		total.removeDueLater += c.removeDueLater
		total.addAtNow += c.addAtNow
		total.lateWake += c.lateWake
		total.betweenRuns += c.betweenRuns
	}
	t.Logf("%+v", total)
	if total.rearmAtNow == 0 || total.removeDueLater == 0 || total.addAtNow == 0 || total.lateWake == 0 || total.betweenRuns == 0 {
		t.Errorf("streams left a case unexercised: %+v", total)
	}
}

// FuzzEngineMatchesReference decodes arbitrary bytes into the same
// operation streams as TestEngineMatchesReference and requires both
// engines to agree on them.
func FuzzEngineMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(engineStream(seed, 40))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		matchEngines(t, data)
	})
}
