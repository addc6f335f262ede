// Package dram models a DDR5 DRAM channel with Per Row Activation Counting
// (PRAC) as specified by JESD79-5C and studied in the paper "When Mitigations
// Backfire" (ISCA 2025).
//
// The model is command-level and cycle-accurate with respect to the JEDEC
// timing parameters in the paper's Table 3: the memory controller asks
// whether a command is legal at the current tick (CanIssue) and then commits
// it (Issue); the module tracks per-bank state machines, per-row activation
// counters, the Alert Back-Off protocol, refresh, and Refresh Management
// (RFM) commands.
package dram

import (
	"fmt"

	"pracsim/internal/ticks"
)

// Org describes the physical organization of one DRAM channel.
type Org struct {
	Ranks         int // ranks per channel
	BankGroups    int // bank groups per rank
	BanksPerGroup int // banks per bank group
	Rows          int // rows per bank
	Columns       int // cache-line-sized columns per row
	LineBytes     int // bytes per column (cache line)
}

// DDR5Org32Gb is the paper's Table 3 organization: a single channel of
// quad-rank 32 Gb DDR5 chips with 128K rows per bank and 8 KB rows.
func DDR5Org32Gb() Org {
	return Org{
		Ranks:         4,
		BankGroups:    8,
		BanksPerGroup: 4,
		Rows:          128 * 1024,
		Columns:       128,
		LineBytes:     64,
	}
}

// Banks reports the total number of banks in the channel.
func (o Org) Banks() int { return o.Ranks * o.BankGroups * o.BanksPerGroup }

// BanksPerRank reports the number of banks in one rank.
func (o Org) BanksPerRank() int { return o.BankGroups * o.BanksPerGroup }

// RankOf reports which rank a flat bank index belongs to.
func (o Org) RankOf(bank int) int { return bank / o.BanksPerRank() }

// RowBytes reports the size of one row in bytes.
func (o Org) RowBytes() int { return o.Columns * o.LineBytes }

// CapacityBytes reports the total channel capacity in bytes.
func (o Org) CapacityBytes() int64 {
	return int64(o.Banks()) * int64(o.Rows) * int64(o.RowBytes())
}

// Validate reports whether the organization is self-consistent.
func (o Org) Validate() error {
	switch {
	case o.Ranks <= 0, o.BankGroups <= 0, o.BanksPerGroup <= 0:
		return fmt.Errorf("dram: organization has non-positive bank dimensions: %+v", o)
	case o.Rows <= 0 || o.Columns <= 0 || o.LineBytes <= 0:
		return fmt.Errorf("dram: organization has non-positive row dimensions: %+v", o)
	case int64(o.Rows) > 1<<31:
		// The PRAC counter table keys a row as uint32(row)+1.
		return fmt.Errorf("dram: organization has %d rows per bank, more than 1<<31", o.Rows)
	}
	return nil
}

// Timing holds the JEDEC timing parameters used by the model, in ticks.
// Field names follow the DDR5 specification.
type Timing struct {
	TRCD    ticks.T // ACT to RD/WR delay
	TCL     ticks.T // RD to data start
	TCWL    ticks.T // WR to data start
	TRAS    ticks.T // ACT to PRE minimum
	TRP     ticks.T // PRE to ACT delay (PRAC-extended)
	TRTP    ticks.T // RD to PRE delay
	TWR     ticks.T // write recovery (end of data to PRE)
	TRC     ticks.T // ACT to ACT delay, same bank
	TRFC    ticks.T // all-bank refresh duration
	TREFI   ticks.T // average refresh interval
	TREFW   ticks.T // refresh window (retention period)
	TABOACT ticks.T // max time from Alert to RFM service
	TRFMab  ticks.T // RFM All Bank blocking duration
	TRFMpb  ticks.T // Per-bank RFM blocking duration (Section 7.2 extension)
	TBURST  ticks.T // data burst duration for one cache line
}

// DDR5_8000B returns the paper's Table 3 timings for a 32 Gb DDR5-8000B
// device with the PRAC-extended precharge (tRP = 36 ns).
func DDR5_8000B() Timing {
	return Timing{
		TRCD:    ticks.FromNS(16),
		TCL:     ticks.FromNS(16),
		TCWL:    ticks.FromNS(16),
		TRAS:    ticks.FromNS(16),
		TRP:     ticks.FromNS(36),
		TRTP:    ticks.FromNS(5),
		TWR:     ticks.FromNS(10),
		TRC:     ticks.FromNS(52),
		TRFC:    ticks.FromNS(410),
		TREFI:   ticks.FromNS(3900),
		TREFW:   ticks.FromMS(32),
		TABOACT: ticks.FromNS(180),
		TRFMab:  ticks.FromNS(350),
		TRFMpb:  ticks.FromNS(210),
		TBURST:  ticks.FromNS(2),
	}
}

// Validate reports whether the timings are usable.
func (t Timing) Validate() error {
	if t.TRC < t.TRAS+0 || t.TRC <= 0 || t.TRP <= 0 || t.TRCD <= 0 {
		return fmt.Errorf("dram: inconsistent core timings: %+v", t)
	}
	if t.TREFI <= 0 || t.TREFW <= 0 || t.TRFC <= 0 {
		return fmt.Errorf("dram: inconsistent refresh timings: %+v", t)
	}
	if t.TRFMab <= 0 {
		return fmt.Errorf("dram: non-positive tRFMab: %+v", t)
	}
	if t.TRFMpb < 0 {
		return fmt.Errorf("dram: negative tRFMpb: %+v", t)
	}
	return nil
}

// PRACSpec configures Per Row Activation Counting and the Alert Back-Off
// protocol (the paper's Table 1).
type PRACSpec struct {
	Enabled bool // count activations and assert Alert at NBO

	// NBO is the Back-Off threshold: a row whose activation counter
	// reaches NBO asserts the Alert signal.
	NBO int

	// NMit is the PRAC level: the number of RFMab commands the memory
	// controller issues per Alert (1, 2, or 4).
	NMit int

	// ABOActAllowance is the number of additional activations the
	// controller may issue between Alert assertion and RFM service.
	ABOActAllowance int

	// ResetOnREFW resets all per-row counters at each refresh window
	// boundary, as proposed by MOAT and analyzed in Section 4.2.
	ResetOnREFW bool
}

// DefaultPRAC returns the paper's default PRAC configuration for a given
// Back-Off threshold: PRAC level 1, ABOACT allowance 3, counter reset on.
func DefaultPRAC(nbo int) PRACSpec {
	return PRACSpec{
		Enabled:         true,
		NBO:             nbo,
		NMit:            1,
		ABOActAllowance: 3,
		ResetOnREFW:     true,
	}
}

// Validate reports whether the PRAC configuration is usable.
func (p PRACSpec) Validate() error {
	if !p.Enabled {
		return nil
	}
	if p.NBO <= 0 {
		return fmt.Errorf("dram: PRAC NBO must be positive, got %d", p.NBO)
	}
	switch p.NMit {
	case 1, 2, 4:
	default:
		return fmt.Errorf("dram: PRAC level must be 1, 2 or 4, got %d", p.NMit)
	}
	if p.ABOActAllowance < 0 {
		return fmt.Errorf("dram: negative ABOACT allowance %d", p.ABOActAllowance)
	}
	return nil
}

// QueueKind selects the in-DRAM mitigation queue design.
type QueueKind int

const (
	// QueueSingleEntry is TPRAC's single-entry frequency-based queue:
	// it retains the address and count of the most activated row.
	QueueSingleEntry QueueKind = iota

	// QueuePriority is a QPRAC-style bounded priority queue holding the
	// top-K rows by activation count.
	QueuePriority

	// QueueIdeal is the UPRAC idealized design: every mitigation targets
	// the row with the truly highest live counter in the bank.
	QueueIdeal

	// QueueFIFO is a bounded FIFO of recently alerted rows. Prior work
	// showed this design is vulnerable to targeted attacks; it is
	// included as an ablation baseline.
	QueueFIFO
)

// String returns the queue kind name used in experiment output.
func (k QueueKind) String() string {
	switch k {
	case QueueSingleEntry:
		return "single-entry"
	case QueuePriority:
		return "priority"
	case QueueIdeal:
		return "ideal"
	case QueueFIFO:
		return "fifo"
	default:
		return fmt.Sprintf("QueueKind(%d)", int(k))
	}
}

// Config assembles a full DRAM channel configuration.
type Config struct {
	Org        Org
	Timing     Timing
	PRAC       PRACSpec
	Queue      QueueKind
	QueueDepth int // entries for QueuePriority / QueueFIFO; ignored otherwise
}

// DefaultConfig returns the paper's evaluated device: 32 Gb DDR5-8000B with
// PRAC level 1 at the given Back-Off threshold and TPRAC's single-entry
// mitigation queue.
func DefaultConfig(nbo int) Config {
	return Config{
		Org:        DDR5Org32Gb(),
		Timing:     DDR5_8000B(),
		PRAC:       DefaultPRAC(nbo),
		Queue:      QueueSingleEntry,
		QueueDepth: 1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Org.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if err := c.PRAC.Validate(); err != nil {
		return err
	}
	switch c.Queue {
	case QueueSingleEntry, QueueIdeal:
	case QueuePriority, QueueFIFO:
		if c.QueueDepth <= 0 {
			return fmt.Errorf("dram: %v queue needs positive depth, got %d", c.Queue, c.QueueDepth)
		}
	default:
		return fmt.Errorf("dram: unknown queue kind %d", int(c.Queue))
	}
	return nil
}
