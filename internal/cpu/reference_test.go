package cpu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pracsim/internal/ticks"
	"pracsim/internal/trace"
)

// refCore is the reference model for Core: the core as it was before
// its reorder buffer became a division-free ring, kept verbatim apart
// from its name. Its ROB indexes wrap with %, its relocation divides by
// the address-space size on every memory record, and its load closures
// capture the core itself. FuzzCoreMatchesReference holds Core to it.
type refCore struct {
	cfg    Config
	stream trace.Stream
	runs   runStream
	mem    MemPort

	rob   []robEntry
	head  int
	count int

	loadDone []func(at ticks.T)

	stalled    trace.Record
	hasStalled bool
	streamDone bool

	offset uint64
	lines  uint64

	lastTick  ticks.T
	waker     func(at ticks.T)
	retrySlot func(ticks.T) ticks.T

	stats Stats
}

func newRefCore(cfg Config, stream trace.Stream, mem MemPort, offset, lines uint64) *refCore {
	c := &refCore{
		cfg:      cfg,
		stream:   stream,
		mem:      mem,
		rob:      make([]robEntry, cfg.ROBSize),
		loadDone: make([]func(at ticks.T), cfg.ROBSize),
		offset:   offset,
		lines:    lines,
		lastTick: -CyclePeriod,
	}
	c.runs, _ = stream.(runStream)
	for slot := range c.loadDone {
		c.loadDone[slot] = func(at ticks.T) {
			c.rob[slot].completeAt = at
			if c.waker != nil && slot == c.head {
				c.waker(at)
			}
		}
	}
	return c
}

func (c *refCore) Stats() Stats { return c.stats }

func (c *refCore) Done() bool { return c.streamDone && c.count == 0 && !c.hasStalled }

func (c *refCore) Tick(now ticks.T) {
	if gap := now - c.lastTick; gap > CyclePeriod {
		idle := int64((gap - CyclePeriod) / CyclePeriod)
		c.stats.Cycles += idle
		c.stats.ElidedCycles += idle
		if !c.streamDone {
			c.stats.StallCycles += idle
		}
	}
	c.lastTick = now
	c.stats.Cycles++
	c.retire(now)
	c.issue(now)
}

func (c *refCore) NextWork(now ticks.T) ticks.T {
	retireAt := ticks.Never
	if c.count > 0 {
		if h := c.rob[c.head].completeAt; h != pendingCompletion {
			if h <= now {
				return now + CyclePeriod
			}
			retireAt = h
		}
	}
	issueAt := ticks.Never
	if c.count < len(c.rob) {
		switch {
		case c.hasStalled:
			if c.retrySlot != nil {
				issueAt = c.retrySlot(now)
			} else {
				issueAt = now + CyclePeriod
			}
		case !c.streamDone:
			return now + CyclePeriod
		}
	}
	return ticks.Min(retireAt, issueAt)
}

func (c *refCore) retire(now ticks.T) {
	for n := 0; n < c.cfg.RetireWidth && c.count > 0; n++ {
		e := &c.rob[c.head]
		if e.completeAt == pendingCompletion || e.completeAt > now {
			return
		}
		c.head = (c.head + 1) % len(c.rob)
		c.count--
		c.stats.Instructions++
	}
}

func (c *refCore) issue(now ticks.T) {
	progressed := false
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if c.count == len(c.rob) {
			break
		}
		if c.runs != nil && !c.hasStalled {
			if k := c.runs.SkipNonMem(min(c.cfg.IssueWidth-n, len(c.rob)-c.count)); k > 0 {
				for i := 0; i < k; i++ {
					c.rob[(c.head+c.count+i)%len(c.rob)].completeAt = now + CyclePeriod
				}
				c.count += k
				n += k - 1
				progressed = true
				continue
			}
		}
		rec, ok := c.nextRecord()
		if !ok {
			break
		}
		if !c.dispatch(rec, now) {
			c.stalled, c.hasStalled = rec, true
			break
		}
		progressed = true
	}
	if !progressed && !c.streamDone {
		c.stats.StallCycles++
	}
}

func (c *refCore) nextRecord() (trace.Record, bool) {
	if c.hasStalled {
		c.hasStalled = false
		return c.stalled, true
	}
	if c.streamDone {
		return trace.Record{}, false
	}
	rec, ok := c.stream.Next()
	if !ok {
		c.streamDone = true
	}
	return rec, ok
}

func (c *refCore) dispatch(rec trace.Record, now ticks.T) bool {
	slot := (c.head + c.count) % len(c.rob)
	e := &c.rob[slot]
	if !rec.IsMem {
		e.completeAt = now + CyclePeriod
		c.count++
		return true
	}
	line := (rec.Line + c.offset) % c.lines
	if rec.Write {
		if !c.mem.Access(line, true, rec.PC, now, nil) {
			return false
		}
		e.completeAt = now + CyclePeriod
		c.count++
		c.stats.Stores++
		return true
	}
	e.completeAt = pendingCompletion
	if !c.mem.Access(line, false, rec.PC, now, c.loadDone[slot]) {
		return false
	}
	c.count++
	c.stats.Loads++
	return true
}

// byteSource reads one choice per byte, as the byte modulo the number of
// outcomes. An exhausted input reads as zeros.
type byteSource []byte

func (b *byteSource) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// uint64n reads a value below n from up to eight bytes.
func (b *byteSource) uint64n(n uint64) uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(b.Intn(256))
	}
	return v % n
}

// runSlice is a SliceStream that also hands over runs of non-memory
// records by count, as a shared replay does.
type runSlice struct {
	recs []trace.Record
	i    int
}

func (s *runSlice) Next() (trace.Record, bool) {
	if s.i >= len(s.recs) {
		return trace.Record{}, false
	}
	s.i++
	return s.recs[s.i-1], true
}

func (s *runSlice) SkipNonMem(max int) int {
	k := 0
	for k < max && s.i < len(s.recs) && !s.recs[s.i].IsMem {
		s.i++
		k++
	}
	return k
}

// access is one MemPort.Access call as a port saw it.
type access struct {
	now   ticks.T
	line  uint64
	write bool
}

// fuzzPort answers each access as its decision bytes say: refuse it,
// complete a load at once, or hold the load's completion for a later
// step, which completes held loads in any order, at times before, at or
// after the current cycle. Two ports over the same bytes answer the same
// access sequence the same way.
type fuzzPort struct {
	src  byteSource
	held []func(at ticks.T)
	log  []access
}

func (p *fuzzPort) Access(line uint64, write bool, pc uint64, now ticks.T, done func(at ticks.T)) bool {
	p.log = append(p.log, access{now, line, write})
	switch p.src.Intn(4) {
	case 1:
		return false
	case 2:
		if done != nil {
			done(now + ticks.T(p.src.Intn(8)))
		}
	case 3:
		if done != nil {
			p.held = append(p.held, done)
		}
	}
	return true
}

// step completes up to three held loads, each picked by index, at a time
// from three cycles before now to eight after it (never below 0). An
// exhausted input completes the oldest at now-3.
func (p *fuzzPort) step(now ticks.T) {
	for n := 1 + p.src.Intn(3); n > 0 && len(p.held) > 0; n-- {
		i := p.src.Intn(len(p.held))
		done := p.held[i]
		p.held = append(p.held[:i], p.held[i+1:]...)
		done(max(0, now+1+ticks.T(p.src.Intn(12))-4))
	}
}

// fuzzLines are the address-space sizes FuzzCoreMatchesReference draws
// from: small ones that trace lines exceed, a power of two, the System's
// size, and sizes past 2^63 where line+offset overflows 2^64.
var fuzzLines = []uint64{1, 7, 1 << 12, 3 << 28, 1<<63 + 5, math.MaxUint64}

// fuzzRecords decodes a record stream: non-memory runs, loads and
// stores, with lines below the address space, just past it, or anywhere
// in 64 bits.
func fuzzRecords(src *byteSource, lines uint64) []trace.Record {
	recs := make([]trace.Record, 1+src.Intn(200))
	for i := range recs {
		r := &recs[i]
		r.PC = uint64(src.Intn(16)) << 2
		switch src.Intn(4) {
		case 0, 1:
			continue // non-memory
		case 2:
			r.IsMem = true
		case 3:
			r.IsMem, r.Write = true, true
		}
		switch src.Intn(3) {
		case 0:
			r.Line = src.uint64n(lines)
		case 1:
			r.Line = lines + uint64(src.Intn(4)) // may wrap past 2^64
		case 2:
			r.Line = src.uint64n(math.MaxUint64)
		}
	}
	return recs
}

// FuzzCoreMatchesReference decodes arbitrary bytes into a core
// configuration, an address space, a record stream and a memory port's
// answers, and runs the stream on Core and on refCore side by side:
// per-record streams and run-skipping streams, hits, refusals, and
// loads completed late and out of order. After every cycle the two must
// report the same Stats, NextWork and Done, every Access the same
// (time, line, write), and every waker call the same time. Cycles are
// ticked back to back or skipped up to NextWork, so idle crediting is
// exercised too. The tested core is built on the reorder buffer of a
// recycled core of the same size that left loads pending.
func FuzzCoreMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		data := make([]byte, 1024)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		src := byteSource(data)
		cfg := Config{IssueWidth: 1 + src.Intn(8), RetireWidth: 1 + src.Intn(8), ROBSize: 1 + src.Intn(40)}
		lines := fuzzLines[src.Intn(len(fuzzLines))]
		var offset uint64
		switch src.Intn(3) {
		case 0:
			offset = src.uint64n(lines)
		case 1:
			offset = lines + uint64(src.Intn(4)) // at or past the space
		case 2:
			offset = src.uint64n(math.MaxUint64)
		}
		runs := src.Intn(2) == 1
		recs := fuzzRecords(&src, lines)
		stream := func() trace.Stream {
			if runs {
				return &runSlice{recs: recs}
			}
			return trace.NewSliceStream(recs)
		}

		// Leave a recycled ROB of this size with loads pending.
		var dirty pendingMem
		old, err := New(1, cfg, stream(), &dirty, offset, lines)
		if err != nil {
			t.Fatal(err)
		}
		for now := range ticks.T(8) {
			old.Tick(now)
		}
		old.Recycle()

		got, want := &fuzzPort{src: src}, &fuzzPort{src: src}
		core, err := New(0, cfg, stream(), got, offset, lines)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCore(cfg, stream(), want, offset, lines)
		var gotWakes, wantWakes []ticks.T
		core.SetWaker(func(at ticks.T) { gotWakes = append(gotWakes, at) })
		ref.waker = func(at ticks.T) { wantWakes = append(wantWakes, at) }
		retry := func(now ticks.T) ticks.T { return now + 4 - now%4 }
		core.SetRetrySlot(retry)
		ref.retrySlot = retry

		now := ticks.T(0)
		for cycle := 0; cycle < 600 && !(core.Done() && ref.Done()); cycle++ {
			core.Tick(now)
			ref.Tick(now)
			where := fmt.Sprintf("cycle %d (t=%d, %+v, lines %d, offset %d, runs %v)", cycle, now, cfg, lines, offset, runs)
			if g, w := core.Stats(), ref.Stats(); g != w {
				t.Fatalf("%s: stats %+v, reference %+v", where, g, w)
			}
			if g, w := core.NextWork(now), ref.NextWork(now); g != w {
				t.Fatalf("%s: NextWork %d, reference %d", where, g, w)
			}
			if g, w := core.Done(), ref.Done(); g != w {
				t.Fatalf("%s: Done %v, reference %v", where, g, w)
			}
			got.step(now)
			want.step(now)
			next := now + CyclePeriod
			jump := got.src.Intn(2) == 1
			want.src.Intn(2)
			if skip := core.NextWork(now); skip != ticks.Never && jump {
				next = max(next, skip)
			}
			now = next
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("%d accesses, reference %d", len(got.log), len(want.log))
		}
		for i := range got.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("access %d: %+v, reference %+v", i, got.log[i], want.log[i])
			}
		}
		if fmt.Sprint(gotWakes) != fmt.Sprint(wantWakes) {
			t.Fatalf("waker calls %v, reference %v", gotWakes, wantWakes)
		}
	})
}
