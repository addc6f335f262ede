// Package cpu implements the trace-driven out-of-order-lite core model used
// for the paper's performance studies. It captures the properties the
// memory-system results depend on — a reorder-buffer-limited instruction
// window, bounded issue/retire width, loads that block retirement until data
// returns, and posted stores — without simulating a full pipeline (the
// paper's own footnote reports <1% sensitivity to front-end policies).
package cpu

import (
	"fmt"

	"pracsim/internal/spare"
	"pracsim/internal/ticks"
	"pracsim/internal/trace"
)

// CyclePeriod is one core clock at 4 GHz.
const CyclePeriod = ticks.T(1)

// MemPort is where the core sends memory accesses (the L1 data cache).
type MemPort interface {
	Access(line uint64, write bool, pc uint64, now ticks.T, done func(at ticks.T)) bool
}

// Config sizes the core per the paper's Table 3.
type Config struct {
	IssueWidth  int
	RetireWidth int
	ROBSize     int
}

// DefaultConfig is the paper's 6-issue, 4-retire, 352-entry ROB core.
func DefaultConfig() Config {
	return Config{IssueWidth: 6, RetireWidth: 4, ROBSize: 352}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.IssueWidth <= 0 || c.RetireWidth <= 0 || c.ROBSize <= 0 {
		return fmt.Errorf("cpu: widths and ROB size must be positive: %+v", c)
	}
	return nil
}

// Stats counts core progress.
type Stats struct {
	Instructions int64
	Cycles       int64
	Loads        int64
	Stores       int64
	StallCycles  int64 // cycles where issue made no progress
	// ElidedCycles counts cycles that were accounted (into Cycles and,
	// when applicable, StallCycles) without being simulated, because
	// demand-driven clocking proved them to be no-ops. It is telemetry:
	// all other counters are bit-identical with per-cycle ticking.
	ElidedCycles int64
}

// IPC reports retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

const pendingCompletion = ticks.T(-1)

type robEntry struct {
	completeAt ticks.T // pendingCompletion until the load's data returns
}

// runStream is a Stream that can hand over a run of non-memory records
// by count. SkipNonMem consumes up to max of the non-memory records that
// come next and reports how many; 0 means the next record is a memory
// record.
type runStream interface {
	SkipNonMem(max int) int
}

// Core is one simulated hardware context.
type Core struct {
	id     int
	cfg    Config
	stream trace.Stream
	runs   runStream // stream, when it hands over non-memory runs
	mem    MemPort

	rob   []robEntry // a ring: head is the oldest entry, count are live
	head  int
	count int

	// loadDone[i] completes the load in ROB slot i. The funcs are bound
	// once per robState, so dispatching (or retrying) a load allocates
	// nothing.
	loadDone []func(at ticks.T)
	robs     *robState // owns rob and loadDone; nil once recycled

	stalled    trace.Record // the refused instruction, valid while hasStalled
	hasStalled bool
	streamDone bool

	offset uint64 // address-space offset in cache lines
	lines  uint64 // address-space size for wrapping
	// wrapBelow is lines when offset < lines, else 0: a trace line below
	// it relocates by one compare-and-subtract instead of a division.
	wrapBelow uint64

	lastTick  ticks.T               // previous Tick time, for idle-cycle crediting
	waker     func(at ticks.T)      // wakes a parked clock when the ROB head's data returns
	retrySlot func(ticks.T) ticks.T // next cycle a refused memory access can usefully retry

	stats Stats
}

// robState is a core's reorder buffer and the load-completion closures
// bound to its slots. Cores with the same ROB size hand it on through
// spareROBs, so a process that builds core after core (an experiment
// grid) binds the closures once per concurrently live core. The closures
// complete into core, which New points at the core it builds.
type robState struct {
	rob      []robEntry
	loadDone []func(at ticks.T)
	core     *Core // the core the closures complete into; nil while spare
}

// spareROBs holds the reorder buffers of recycled cores, a stack per ROB
// size.
var spareROBs = spare.New[int, *robState]("cpu.rob")

// newROBState allocates a ROB of size entries and binds its closures.
func newROBState(size int) *robState {
	rs := &robState{
		rob:      make([]robEntry, size),
		loadDone: make([]func(at ticks.T), size),
	}
	for slot := range rs.loadDone {
		rs.loadDone[slot] = func(at ticks.T) {
			c := rs.core
			c.rob[slot].completeAt = at
			// Waking matters only when this load gates retirement: a
			// parked core's head cannot move, so slot identity is stable.
			if c.waker != nil && slot == c.head {
				c.waker(at)
			}
		}
	}
	return rs
}

// New builds a core reading from stream and accessing memory through mem.
// offset and lines place the core's address space: every trace line address
// is relocated to (line+offset) mod lines, modeling per-process physical
// allocations like ChampSim's per-core address spaces.
func New(id int, cfg Config, stream trace.Stream, mem MemPort, offset, lines uint64) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if stream == nil || mem == nil {
		return nil, fmt.Errorf("cpu: core %d needs a stream and a memory port", id)
	}
	if lines == 0 {
		return nil, fmt.Errorf("cpu: core %d has an empty address space", id)
	}
	rs, ok := spareROBs.Take(cfg.ROBSize)
	if ok {
		clear(rs.rob)
	} else {
		rs = newROBState(cfg.ROBSize)
	}
	c := &Core{
		id:       id,
		cfg:      cfg,
		stream:   stream,
		mem:      mem,
		rob:      rs.rob,
		loadDone: rs.loadDone,
		robs:     rs,
		offset:   offset,
		lines:    lines,
		lastTick: -CyclePeriod,
	}
	if offset < lines {
		c.wrapBelow = lines
	}
	c.runs, _ = stream.(runStream)
	rs.core = c
	return c, nil
}

// Recycle hands the core's reorder buffer and its load-completion
// closures to the next New with the same ROB size. A closure still held
// downstream (an MSHR waiter) would complete into that next core, so
// whatever holds the core's loads must be recycled or dropped with it.
// The core must not be used again: Tick and NextWork panic. Recycling a
// core twice is a no-op.
func (c *Core) Recycle() {
	rs := c.robs
	if rs == nil {
		return
	}
	rs.core = nil
	c.robs, c.rob, c.loadDone = nil, nil, nil
	spareROBs.Put(len(rs.rob), rs)
}

// ID reports the core's index.
func (c *Core) ID() int { return c.id }

// Stats returns a snapshot of the counters.
func (c *Core) Stats() Stats { return c.stats }

// ResetStats clears the counters (used at the warmup/measurement boundary).
func (c *Core) ResetStats() { c.stats = Stats{} }

// Done reports whether the trace is exhausted and the pipeline drained.
func (c *Core) Done() bool { return c.streamDone && c.count == 0 && !c.hasStalled }

// SetWaker registers fn, invoked when the load blocking the ROB head
// completes — the event that can turn a fully-stalled core (parked by a
// demand-driven clock after NextWork returned ticks.Never) runnable again.
// The argument is the completion time: the first cycle retirement can
// make progress.
func (c *Core) SetWaker(fn func(at ticks.T)) { c.waker = fn }

// SetRetrySlot tells the core when a memory access refused at a given
// cycle can next be retried with any chance of success. Downstream
// resources (MSHRs, controller queue slots) are only released when the
// memory controller ticks, so the driving clock injects the controller's
// cycle grid here. A nil fn (the default) makes NextWork assume a refused
// access must retry every cycle.
func (c *Core) SetRetrySlot(fn func(now ticks.T) ticks.T) { c.retrySlot = fn }

// SyncClock aligns the idle-crediting baseline with the driving clock:
// the next Tick at or before now+CyclePeriod credits no elided cycles.
// Clock drivers call it when (re)attaching a ticker to the core, so gaps
// in which the core deliberately did not tick (e.g. between measurement
// phases after it retired its budget) are not misread as elided idle time.
func (c *Core) SyncClock(now ticks.T) { c.lastTick = now - CyclePeriod }

// Tick advances the core by one cycle: retire then issue. A gap since the
// previous Tick is credited as elided idle cycles: demand-driven clocks
// only skip cycles they have proven would neither retire nor issue, so
// those cycles contribute exactly what the per-cycle baseline would have
// counted — one Cycle each, and one StallCycle each while the stream has
// instructions left.
func (c *Core) Tick(now ticks.T) {
	if c.rob == nil {
		panic("cpu: core used after Recycle")
	}
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

// NextWork reports a conservative lower bound on the next time Tick can
// make progress, assuming no new completions arrive: now+CyclePeriod when
// the core may progress next cycle, the ROB head's completion time when
// the core is fully stalled behind a known-latency load, the next useful
// retry slot when a memory access was refused, or ticks.Never when only
// an as-yet-unscheduled completion (see SetWaker) can create work. Every
// cycle strictly before the reported time is provably a no-op, so a
// demand-driven clock may skip it and credit it via the Tick gap.
func (c *Core) NextWork(now ticks.T) ticks.T {
	if c.rob == nil {
		panic("cpu: core used after Recycle")
	}
	retireAt := ticks.Never
	if c.count > 0 {
		if h := c.rob[c.head].completeAt; h != pendingCompletion {
			if h <= now {
				return now + CyclePeriod // retirement progresses next cycle
			}
			retireAt = h
		}
	}
	issueAt := ticks.Never
	if c.count < len(c.rob) {
		switch {
		case c.hasStalled:
			// A refused access can only succeed after downstream
			// resources free up; retries before then are no-ops.
			if c.retrySlot != nil {
				issueAt = c.retrySlot(now)
			} else {
				issueAt = now + CyclePeriod
			}
		case !c.streamDone:
			return now + CyclePeriod // fresh instructions can dispatch
		}
	}
	return ticks.Min(retireAt, issueAt)
}

func (c *Core) retire(now ticks.T) {
	for n := 0; n < c.cfg.RetireWidth && c.count > 0; n++ {
		e := &c.rob[c.head]
		if e.completeAt == pendingCompletion || e.completeAt > now {
			return
		}
		if c.head++; c.head == len(c.rob) {
			c.head = 0
		}
		c.count--
		c.stats.Instructions++
	}
}

func (c *Core) issue(now ticks.T) {
	progressed := false
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if c.count == len(c.rob) {
			break
		}
		if c.runs != nil && !c.hasStalled {
			// Non-memory records always dispatch, so a run of them
			// fills its slots in one step.
			if k := c.runs.SkipNonMem(min(c.cfg.IssueWidth-n, len(c.rob)-c.count)); k > 0 {
				slot := c.tail()
				for range k {
					c.rob[slot].completeAt = now + CyclePeriod
					if slot++; slot == len(c.rob) {
						slot = 0
					}
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

// nextRecord returns the stalled record if any, else pulls from the stream.
func (c *Core) nextRecord() (trace.Record, bool) {
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

// dispatch places one instruction into the ROB. It reports false when the
// memory system refused the access (the instruction must retry next cycle).
func (c *Core) dispatch(rec trace.Record, now ticks.T) bool {
	slot := c.tail()
	e := &c.rob[slot]
	if !rec.IsMem {
		e.completeAt = now + CyclePeriod
		c.count++
		return true
	}
	line := c.relocate(rec.Line)
	if rec.Write {
		// Stores retire without waiting: the store buffer posts them.
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

// tail returns the ROB slot the next dispatched instruction takes. The
// ROB must not be full, so head+count wraps at most once.
func (c *Core) tail() int {
	slot := c.head + c.count
	if slot >= len(c.rob) {
		slot -= len(c.rob)
	}
	return slot
}

// relocate returns (line+offset) mod lines, the sum taken mod 2^64. When
// line and offset are both below lines, the sum wraps past lines at most
// once (a sum that overflows 2^64 lands below lines), so one
// compare-and-subtract replaces the division.
func (c *Core) relocate(line uint64) uint64 {
	if line >= c.wrapBelow {
		return (line + c.offset) % c.lines
	}
	if line += c.offset; line >= c.lines {
		line -= c.lines
	}
	return line
}
