package memctrl

import (
	"fmt"

	"pracsim/internal/dram"
	"pracsim/internal/mitigation"
	"pracsim/internal/spare"
	"pracsim/internal/ticks"
)

// CyclePeriod is the controller clock: one DRAM command slot per nanosecond.
const CyclePeriod = ticks.T(4)

// Request is one cache-line transfer presented to the controller. Enqueue
// copies an accepted request into the controller's own queue storage, so
// callers may pass a short-lived (stack) literal and reuse or discard it
// as soon as Enqueue returns.
type Request struct {
	// Line is the physical cache-line index (address / line size); the
	// controller's address mapper turns it into a bank/row/column.
	Line  uint64
	Write bool

	// OnComplete, if non-nil, runs when read data has fully transferred
	// (writes are posted and complete on enqueue).
	OnComplete func(done ticks.T)

	arrive ticks.T
	loc    Loc
	missed bool
}

// Config parameterizes the controller.
type Config struct {
	ReadQueueCap  int
	WriteQueueCap int
	WriteHi       int // start draining writes at this occupancy
	WriteLo       int // stop draining at this occupancy
	FRFCFSCap     int // max row hits served over an older conflicting request
	TREFEvery     int // every k-th refresh is a Targeted Refresh (0 = off)
	NoRefresh     bool
}

// DefaultConfig matches the paper's Table 3 controller: FR-FCFS with a cap
// of 4, and targeted refreshes disabled unless an experiment enables them.
func DefaultConfig() Config {
	return Config{
		ReadQueueCap:  64,
		WriteQueueCap: 64,
		WriteHi:       48,
		WriteLo:       16,
		FRFCFSCap:     4,
	}
}

// Stats counts controller activity.
type Stats struct {
	Reads        int64
	Writes       int64
	RowHits      int64
	RowMisses    int64
	ABORFMs      int64 // RFMs issued to service Alert Back-Off
	PolicyRFMs   int64 // proactive RFMs (ACB or TB-RFM)
	Refreshes    int64
	TREFs        int64
	ReadLatency  ticks.T // cumulative arrive-to-data latency
	WriteForward int64
}

// Controller owns one DRAM channel.
type Controller struct {
	cfg    Config
	mod    *dram.Module
	dcfg   dram.Config // mod.Config(), read once: the module's config never changes
	mapper AddressMapper
	policy mitigation.Policy
	// pbPolicy is policy as a PerBankPolicy, resolved once in New; nil
	// when the policy issues no per-bank RFMs.
	pbPolicy mitigation.PerBankPolicy

	// The queues hold requests by value in age order. Their capacity is
	// the configured cap, allocated once, so enqueueing never allocates
	// and never moves a queued request.
	readQ  []Request
	writeQ []Request

	draining bool

	// Refresh state, per rank.
	nextRefAt []ticks.T
	refDebt   []int
	refCount  []int64
	trefSeen  int

	// RFM state.
	rfmPending int   // proactive RFMs waiting for the channel to drain
	pbPending  []int // banks with a pending per-bank RFM
	aboRFMs    int   // Alert-servicing RFMs waiting
	aboQueued  bool
	aboBudget  int
	aboDeadln  ticks.T

	hitStreak []int
	bankRank  []int // Org.RankOf per bank, so maintenanceBlocked does not divide
	// plan is the earliest ReadyAt among the commands the current Tick
	// considered and refused. Tick resets it, folds each refusal into it
	// through ready, and returns it; nothing reads it between ticks.
	plan ticks.T
	// triedBank is issueFrom's per-call "bank already considered" scratch,
	// stamped with triedGen so resetting it is one counter increment
	// instead of an O(banks) clear per call.
	triedBank []uint64
	triedGen  uint64

	// writeLines counts in-flight writes per line address, so read-after-
	// write forwarding in Enqueue is a map probe instead of an O(n) scan
	// of the write queue.
	writeLines map[uint64]int

	// waker, when set, is called as each request is queued (see
	// SetWaker) so a demand-driven clock can pull its next tick forward.
	waker func(now ticks.T)

	state *ctrlState // owns the queues, tables and writeLines; nil once recycled

	stats Stats
}

// ctrlState is the storage behind a controller's queues, per-rank and
// per-bank tables and forwarding index. Controllers of one shape hand it
// on through spareCtrls, so a process that builds controller after
// controller (an experiment grid) allocates it once per concurrently
// live controller.
type ctrlState struct {
	readQ, writeQ []Request
	nextRefAt     []ticks.T
	refDebt       []int
	refCount      []int64
	pbPending     []int
	hitStreak     []int
	bankRank      []int
	triedBank     []uint64
	writeLines    map[uint64]int
}

// ctrlShape identifies the controllers that can share a ctrlState.
type ctrlShape struct{ readCap, writeCap, ranks, banks int }

// spareCtrls holds the storage of recycled controllers, a stack per
// shape.
var spareCtrls = spare.New[ctrlShape, *ctrlState]("memctrl")

// New builds a controller over a DRAM module.
func New(cfg Config, mod *dram.Module, mapper AddressMapper, policy mitigation.Policy) (*Controller, error) {
	if mod == nil || mapper == nil || policy == nil {
		return nil, fmt.Errorf("memctrl: module, mapper and policy are required")
	}
	if cfg.ReadQueueCap <= 0 || cfg.WriteQueueCap <= 0 {
		return nil, fmt.Errorf("memctrl: queue capacities must be positive: %+v", cfg)
	}
	if cfg.FRFCFSCap <= 0 {
		return nil, fmt.Errorf("memctrl: FR-FCFS cap must be positive: %+v", cfg)
	}
	dcfg := mod.Config()
	org := dcfg.Org
	shape := ctrlShape{cfg.ReadQueueCap, cfg.WriteQueueCap, org.Ranks, org.Banks()}
	st, ok := spareCtrls.Take(shape)
	if !ok {
		st = &ctrlState{
			readQ:      make([]Request, 0, shape.readCap),
			writeQ:     make([]Request, 0, shape.writeCap),
			nextRefAt:  make([]ticks.T, shape.ranks),
			refDebt:    make([]int, shape.ranks),
			refCount:   make([]int64, shape.ranks),
			hitStreak:  make([]int, shape.banks),
			bankRank:   make([]int, shape.banks),
			triedBank:  make([]uint64, shape.banks),
			writeLines: make(map[uint64]int),
		}
	}
	c := &Controller{
		cfg:        cfg,
		mod:        mod,
		dcfg:       dcfg,
		mapper:     mapper,
		policy:     policy,
		readQ:      st.readQ,
		writeQ:     st.writeQ,
		nextRefAt:  st.nextRefAt,
		refDebt:    st.refDebt,
		refCount:   st.refCount,
		pbPending:  st.pbPending,
		hitStreak:  st.hitStreak,
		bankRank:   st.bankRank,
		triedBank:  st.triedBank,
		writeLines: st.writeLines,
		state:      st,
	}
	c.pbPolicy, _ = policy.(mitigation.PerBankPolicy)
	for b := range c.bankRank {
		c.bankRank[b] = org.RankOf(b)
	}
	for r := range c.nextRefAt {
		// Stagger rank refreshes across the tREFI period, as real
		// controllers do, so refresh blackouts do not align.
		c.nextRefAt[r] = dcfg.Timing.TREFI * ticks.T(r+1) / ticks.T(org.Ranks)
	}
	return c, nil
}

// Recycle hands the controller's queues and tables to the next New of
// the same shape, cleared. Every queued request is dropped with its
// completion, so a completion bound to a recycled cache level cannot
// run. The controller must not be used again: its module, mapper and
// storage are gone, so Enqueue, Tick and NextWork panic. Recycling a
// controller twice is a no-op.
func (c *Controller) Recycle() {
	st := c.state
	if st == nil {
		return
	}
	st.readQ = c.readQ[:0]
	st.writeQ = c.writeQ[:0]
	st.pbPending = c.pbPending[:0] // keep the buffer DuePerBank grew
	clear(st.readQ[:cap(st.readQ)])
	clear(st.writeQ[:cap(st.writeQ)])
	clear(st.refDebt)
	clear(st.refCount)
	clear(st.hitStreak)
	clear(st.triedBank)
	clear(st.writeLines)
	*c = Controller{cfg: c.cfg, dcfg: c.dcfg, policy: c.policy, stats: c.stats}
	spareCtrls.Put(ctrlShape{cap(st.readQ), cap(st.writeQ), len(st.refDebt), len(st.hitStreak)}, st)
}

// Stats returns a snapshot of controller counters.
func (c *Controller) Stats() Stats { return c.stats }

// Module exposes the underlying DRAM module (read-only use intended).
func (c *Controller) Module() *dram.Module { return c.mod }

// Mapper exposes the address mapper.
func (c *Controller) Mapper() AddressMapper { return c.mapper }

// Policy exposes the mitigation policy.
func (c *Controller) Policy() mitigation.Policy { return c.policy }

// QueueLen reports current read and write queue occupancy.
func (c *Controller) QueueLen() (reads, writes int) { return len(c.readQ), len(c.writeQ) }

// SetWaker registers fn, invoked whenever Enqueue queues a request — the
// only event that can create work for the controller between the times
// NextWork computed. A request can become serviceable before the command
// the controller was sleeping towards, so the waker fires on every queued
// request, not only on the empty-to-occupied transition. Demand-driven
// clocks use it to pull a parked or deferred controller ticker up to the
// next cycle. A read served by write forwarding queues nothing and does
// not fire it.
func (c *Controller) SetWaker(fn func(now ticks.T)) { c.waker = fn }

// Enqueue presents a request to the controller. It reports false when the
// relevant queue is full; the caller must retry later. An accepted
// request is copied into the controller: req itself is not retained.
func (c *Controller) Enqueue(req *Request, now ticks.T) bool {
	if req.Write {
		if len(c.writeQ) >= c.cfg.WriteQueueCap {
			return false
		}
		c.writeQ = append(c.writeQ, c.admit(req, now))
		c.writeLines[req.Line]++
		c.stats.Writes++
		c.wake(now)
		return true
	}
	// Read-after-write forwarding: pending writes hold the freshest data.
	if c.writeLines[req.Line] > 0 {
		c.stats.Reads++
		c.stats.WriteForward++
		if req.OnComplete != nil {
			req.OnComplete(now + CyclePeriod)
		}
		return true
	}
	if len(c.readQ) >= c.cfg.ReadQueueCap {
		return false
	}
	c.readQ = append(c.readQ, c.admit(req, now))
	c.stats.Reads++
	c.wake(now)
	return true
}

// admit returns the queued copy of req: its public fields plus the
// arrival time and decoded location the scheduler works from.
func (c *Controller) admit(req *Request, now ticks.T) Request {
	return Request{
		Line:       req.Line,
		Write:      req.Write,
		OnComplete: req.OnComplete,
		arrive:     now,
		loc:        c.mapper.Decode(req.Line),
	}
}

// wake fires the waker for a request just queued.
func (c *Controller) wake(now ticks.T) {
	if c.waker != nil {
		c.waker(now)
	}
}

// Tick advances the controller by one cycle; it issues at most one DRAM
// command. now must advance by CyclePeriod between calls.
//
// A cycle that issues no command reports idle and the controller's next
// work time, as NextWork defines it but exact: the cycle's pass visited
// every command FR-FCFS and the maintenance rules would consider, in the
// order they would consider them, and refused each one, so until the
// earliest of their ReadyAt times (or a deadline, or a new request) every
// later cycle would repeat the same refusals. After a cycle that issued a
// command, idle is false and next is 0: the caller asks NextWork.
func (c *Controller) Tick(now ticks.T) (next ticks.T, idle bool) {
	c.mod.Maintain(now)
	c.accrueMaintenance(now)

	c.plan = ticks.Never
	if c.serviceMaintenance(now) || c.schedule(now) {
		return 0, false
	}
	return c.wakeAt(now, c.plan), true
}

// NextWork reports the earliest time, after now, at which the controller
// could possibly change state, assuming no new requests arrive. It is the
// minimum of
//
//   - the earliest time the DRAM allows any command the controller might
//     issue (dram.Module.ReadyAt): each queued request's next command (RD
//     or WR to its open row, PRE of another open row, ACT of an idle
//     bank), and the pending maintenance commands (RFMab, RFMpb, REFab, or
//     a PRE that drains their scope);
//   - the time-driven deadlines: refresh accrual, the policy's next
//     scheduled RFM, the DRAM's next housekeeping action and an armed
//     Alert's tABOACT deadline;
//
// clamped to at least now+CyclePeriod, or ticks.Never when none exists.
// The candidate set over-approximates what may actually issue — it
// ignores the FR-FCFS order and cap and the banks maintenance holds
// quiescent — which only ever wakes the controller early; an idle Tick
// reports the exact answer instead. Two states change without a command
// issuing and without a deadline to wait for, and so keep the answer at
// the next cycle: an Alert whose Back-Off has yet to arm its deadline or
// whose ACT budget is spent, and a pending flip of the write-drain mode.
// Every controller cycle strictly before the reported time is provably a
// no-op, so a demand-driven clock may skip it; a request arriving earlier
// re-arms the clock through SetWaker.
func (c *Controller) NextWork(now ticks.T) ticks.T {
	return c.wakeAt(now, c.earliestCommand(now+CyclePeriod))
}

// wakeAt completes a next-work answer (see NextWork) from cmdAt, the
// earliest time a command the controller would issue becomes legal.
func (c *Controller) wakeAt(now, cmdAt ticks.T) ticks.T {
	soon := now + CyclePeriod
	if cmdAt <= soon || c.drainModeFlips() {
		return soon // the common answer under load: skip the deadlines
	}
	next := min(cmdAt, c.policy.NextDue(now), c.mod.NextMaintenance(now))
	if c.mod.AlertAsserted() && !c.aboQueued {
		if c.aboDeadln == 0 || c.aboBudget <= 0 {
			return soon // the Back-Off arms or queues its RFMs next cycle
		}
		next = min(next, c.aboDeadln)
	}
	if !c.cfg.NoRefresh {
		for _, at := range c.nextRefAt {
			next = min(next, at)
		}
	}
	return max(next, soon)
}

// drainModeFlips reports whether schedule's next call will switch the
// write-drain mode: a state change with no command attached.
func (c *Controller) drainModeFlips() bool {
	if c.draining {
		return len(c.writeQ) <= c.cfg.WriteLo
	}
	return len(c.writeQ) >= c.cfg.WriteHi
}

// earliestCommand reports the earliest ReadyAt among the commands the
// controller might issue next: each queued request's next command, then
// the pending maintenance commands. It stops searching once a candidate
// is ready by floor, since NextWork never answers earlier than that.
// Requests are scanned youngest first: FR-FCFS serves ready requests
// quickly, so the old ones are mostly those still waiting, and a
// saturated queue finds a ready candidate within a few entries.
func (c *Controller) earliestCommand(floor ticks.T) ticks.T {
	next := ticks.Never
	for _, q := range [2][]Request{c.readQ, c.writeQ} {
		for i := len(q) - 1; i >= 0; i-- {
			next = min(next, c.mod.ReadyAt(c.nextCommand(&q[i])))
			if next <= floor {
				return next
			}
		}
	}
	org := &c.dcfg.Org
	if c.rfmPending > 0 || c.aboRFMs > 0 {
		next = min(next, c.mod.ReadyAt(dram.Cmd{Kind: dram.CmdRFMab}), c.earliestDrain(0, org.Banks()))
	}
	for _, b := range c.pbPending {
		next = min(next,
			c.mod.ReadyAt(dram.Cmd{Kind: dram.CmdRFMpb, Bank: b}),
			c.mod.ReadyAt(dram.Cmd{Kind: dram.CmdPRE, Bank: b}))
	}
	for r, debt := range c.refDebt {
		if debt > 0 {
			lo := r * org.BanksPerRank()
			next = min(next,
				c.mod.ReadyAt(dram.Cmd{Kind: dram.CmdREFab, Bank: r}),
				c.earliestDrain(lo, lo+org.BanksPerRank()))
		}
	}
	return next
}

// earliestDrain reports the earliest PRE among the open banks in [lo, hi).
func (c *Controller) earliestDrain(lo, hi int) ticks.T {
	next := ticks.Never
	for b := lo; b < hi; b++ {
		next = min(next, c.mod.ReadyAt(dram.Cmd{Kind: dram.CmdPRE, Bank: b}))
	}
	return next
}

// nextCommand returns the command that moves r forward from its bank's
// current state: its column access if its row is open, a PRE if another
// row is, an ACT otherwise.
func (c *Controller) nextCommand(r *Request) dram.Cmd {
	b := r.loc.Bank
	row, open := c.mod.OpenRow(b)
	switch {
	case !open:
		return dram.Cmd{Kind: dram.CmdACT, Bank: b, Row: r.loc.Row}
	case row != r.loc.Row:
		return dram.Cmd{Kind: dram.CmdPRE, Bank: b}
	case r.Write:
		return dram.Cmd{Kind: dram.CmdWR, Bank: b}
	default:
		return dram.Cmd{Kind: dram.CmdRD, Bank: b}
	}
}

// ready reports whether the DRAM allows cmd at now. A refused command's
// ReadyAt joins the tick's plan.
func (c *Controller) ready(cmd dram.Cmd, now ticks.T) bool {
	at := c.mod.ReadyAt(cmd)
	if at > now {
		c.plan = min(c.plan, at)
		return false
	}
	return true
}

// accrueMaintenance updates refresh debt, proactive-RFM debt and the Alert
// Back-Off state machine.
func (c *Controller) accrueMaintenance(now ticks.T) {
	t := &c.dcfg.Timing
	if !c.cfg.NoRefresh {
		for r := range c.nextRefAt {
			for now >= c.nextRefAt[r] {
				c.refDebt[r]++
				c.nextRefAt[r] += t.TREFI
			}
		}
	}

	c.rfmPending += c.policy.Due(now)
	if c.pbPolicy != nil {
		c.pbPending = c.pbPolicy.DuePerBank(c.pbPending, now)
	}

	// Alert Back-Off: when the DRAM asserts Alert, the controller may
	// issue up to ABOActAllowance further ACTs (within tABOACT) before
	// it must issue NMit RFMs.
	if c.mod.AlertAsserted() {
		if !c.aboQueued {
			if c.aboDeadln == 0 {
				c.aboDeadln = now + t.TABOACT
				c.aboBudget = c.dcfg.PRAC.ABOActAllowance
			}
			if c.aboBudget <= 0 || now >= c.aboDeadln {
				c.aboRFMs += c.dcfg.PRAC.NMit
				c.aboQueued = true
			}
		}
	} else if c.aboQueued && c.aboRFMs == 0 {
		c.aboQueued = false
		c.aboDeadln = 0
	} else if !c.aboQueued {
		c.aboDeadln = 0
	}
}

// maintenanceBlocked reports whether bank may not receive new activations
// because maintenance needs its rank (or the whole channel) quiescent.
func (c *Controller) maintenanceBlocked(bank int) bool {
	if c.rfmPending > 0 || c.aboRFMs > 0 {
		return true
	}
	for _, b := range c.pbPending {
		if b == bank {
			return true
		}
	}
	return c.refDebt[c.bankRank[bank]] > 0
}

// serviceMaintenance issues PRE/REFab/RFMab commands needed by refresh, RFM
// and Alert servicing. It reports whether it consumed this cycle's command
// slot.
func (c *Controller) serviceMaintenance(now ticks.T) bool {
	org := &c.dcfg.Org
	needRFM := c.rfmPending > 0 || c.aboRFMs > 0

	if needRFM {
		if c.ready(dram.Cmd{Kind: dram.CmdRFMab}, now) {
			c.mod.Issue(dram.Cmd{Kind: dram.CmdRFMab}, now)
			if c.aboRFMs > 0 {
				c.aboRFMs--
				c.stats.ABORFMs++
			} else {
				c.rfmPending--
				c.stats.PolicyRFMs++
			}
			return true
		}
		return c.prechargeForDrain(now, -1)
	}

	if len(c.pbPending) > 0 {
		b := c.pbPending[0]
		cmd := dram.Cmd{Kind: dram.CmdRFMpb, Bank: b}
		if c.ready(cmd, now) {
			c.mod.Issue(cmd, now)
			// Shift rather than reslice, so the buffer keeps its
			// capacity for DuePerBank to append into.
			c.pbPending = c.pbPending[:copy(c.pbPending, c.pbPending[1:])]
			c.stats.PolicyRFMs++
			return true
		}
		if _, open := c.mod.OpenRow(b); open {
			if c.ready(dram.Cmd{Kind: dram.CmdPRE, Bank: b}, now) {
				c.mod.Issue(dram.Cmd{Kind: dram.CmdPRE, Bank: b}, now)
				return true
			}
		}
		// The bank is draining (tRP or rank refresh); fall through so
		// other banks keep being served meanwhile.
	}

	for r := 0; r < org.Ranks; r++ {
		if c.refDebt[r] == 0 {
			continue
		}
		tref := c.cfg.TREFEvery > 0 && (c.refCount[r]+1)%int64(c.cfg.TREFEvery) == 0
		cmd := dram.Cmd{Kind: dram.CmdREFab, Bank: r, TREF: tref}
		if c.ready(cmd, now) {
			c.mod.Issue(cmd, now)
			c.refDebt[r]--
			c.refCount[r]++
			c.stats.Refreshes++
			if tref {
				c.stats.TREFs++
				c.trefSeen++
				if c.trefSeen >= org.Ranks {
					c.trefSeen = 0
					c.policy.OnTREF(now)
				}
			}
			return true
		}
		if c.prechargeForDrain(now, r) {
			return true
		}
	}
	return false
}

// prechargeForDrain closes one open row so pending maintenance can proceed.
// rank < 0 drains the whole channel (for RFMab).
func (c *Controller) prechargeForDrain(now ticks.T, rank int) bool {
	org := &c.dcfg.Org
	lo, hi := 0, org.Banks()
	if rank >= 0 {
		lo = rank * org.BanksPerRank()
		hi = lo + org.BanksPerRank()
	}
	for b := lo; b < hi; b++ {
		if _, open := c.mod.OpenRow(b); !open {
			continue
		}
		if c.ready(dram.Cmd{Kind: dram.CmdPRE, Bank: b}, now) {
			c.mod.Issue(dram.Cmd{Kind: dram.CmdPRE, Bank: b}, now)
			return true
		}
	}
	return false
}

// schedule issues one demand command following FR-FCFS with a hit cap. It
// reports whether a command was issued.
func (c *Controller) schedule(now ticks.T) bool {
	if c.draining {
		if len(c.writeQ) <= c.cfg.WriteLo {
			c.draining = false
		}
	} else if len(c.writeQ) >= c.cfg.WriteHi {
		c.draining = true
	}

	if c.draining || len(c.readQ) == 0 {
		if c.issueFrom(&c.writeQ, now) {
			return true
		}
	}
	if c.issueFrom(&c.readQ, now) {
		return true
	}
	return !c.draining && len(c.readQ) == 0 && c.issueFrom(&c.writeQ, now)
}

// issueFrom applies FR-FCFS to one queue. It reports whether a command was
// issued.
func (c *Controller) issueFrom(q *[]Request, now ticks.T) bool {
	queue := *q
	if len(queue) == 0 {
		return false
	}

	// First Ready: oldest request whose row is already open, unless the
	// bank's hit streak exceeded the cap while an older conflicting
	// request waits (cap-4 FR-FCFS, Table 3).
	var hit *Request
	hitIdx := -1
	for i := range queue {
		r := &queue[i]
		row, open := c.mod.OpenRow(r.loc.Bank)
		if open && row == r.loc.Row {
			capped := c.hitStreak[r.loc.Bank] >= c.cfg.FRFCFSCap && c.olderConflict(queue, i)
			if !capped {
				hit, hitIdx = r, i
				break
			}
		}
	}
	if hit != nil && c.tryColumn(hit, now) {
		if c.olderConflict(queue, hitIdx) {
			c.hitStreak[hit.loc.Bank]++
		}
		if hit.Write {
			c.untrackWrite(hit.Line)
		}
		c.remove(q, hitIdx)
		return true
	}

	// First Come First Served: walk the queue in age order and serve the
	// first request that can make progress, considering each bank once.
	// Requests whose bank is held for pending maintenance or still inside
	// a timing window must not head-of-line-block younger requests to
	// other banks (bank-level parallelism). The scratch set is reset by
	// bumping the generation stamp, not by clearing the slice.
	c.triedGen++
	for i := range queue {
		r := &queue[i]
		b := r.loc.Bank
		if c.triedBank[b] == c.triedGen {
			continue
		}
		c.triedBank[b] = c.triedGen
		if c.maintenanceBlocked(b) {
			continue
		}
		if row, open := c.mod.OpenRow(b); open {
			if row == r.loc.Row {
				continue // column timing not ready; the hit scan serves it
			}
			if c.ready(dram.Cmd{Kind: dram.CmdPRE, Bank: b}, now) {
				c.mod.Issue(dram.Cmd{Kind: dram.CmdPRE, Bank: b}, now)
				return true
			}
			continue
		}
		if c.ready(dram.Cmd{Kind: dram.CmdACT, Bank: b, Row: r.loc.Row}, now) {
			c.mod.Issue(dram.Cmd{Kind: dram.CmdACT, Bank: b, Row: r.loc.Row}, now)
			c.hitStreak[b] = 0
			c.policy.OnActivate(b, now)
			if c.mod.AlertAsserted() && !c.aboQueued && c.aboBudget > 0 {
				c.aboBudget--
			}
			if !r.missed {
				r.missed = true
				c.stats.RowMisses++
			}
			return true
		}
	}
	return false
}

// olderConflict reports whether any request older than index i targets the
// same bank with a different row.
func (c *Controller) olderConflict(queue []Request, i int) bool {
	r := &queue[i]
	for j := range queue[:i] {
		o := &queue[j]
		if o.loc.Bank == r.loc.Bank && o.loc.Row != r.loc.Row {
			return true
		}
	}
	return false
}

// tryColumn issues the RD/WR for a request whose row is open.
func (c *Controller) tryColumn(r *Request, now ticks.T) bool {
	kind := dram.CmdRD
	if r.Write {
		kind = dram.CmdWR
	}
	cmd := dram.Cmd{Kind: kind, Bank: r.loc.Bank}
	if !c.ready(cmd, now) {
		return false
	}
	res := c.mod.Issue(cmd, now)
	if !r.missed {
		c.stats.RowHits++
	}
	if !r.Write && r.OnComplete != nil {
		c.stats.ReadLatency += res.DataAt - r.arrive
		r.OnComplete(res.DataAt)
	}
	return true
}

// untrackWrite drops one in-flight write to line from the forwarding
// index, deleting the key at zero so the map stays bounded by write-queue
// occupancy.
func (c *Controller) untrackWrite(line uint64) {
	if n := c.writeLines[line]; n > 1 {
		c.writeLines[line] = n - 1
	} else {
		delete(c.writeLines, line)
	}
}

func (c *Controller) remove(q *[]Request, i int) {
	queue := *q
	copy(queue[i:], queue[i+1:])
	queue[len(queue)-1] = Request{} // drop the OnComplete reference
	*q = queue[:len(queue)-1]
}
