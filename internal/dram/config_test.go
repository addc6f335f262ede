package dram

import (
	"testing"

	"pracsim/internal/ticks"
)

func TestDDR5Org32GbMatchesPaperTable3(t *testing.T) {
	o := DDR5Org32Gb()
	if got := o.Banks(); got != 128 {
		t.Errorf("Banks() = %d, want 128 (4 ranks x 8 groups x 4 banks)", got)
	}
	if got := o.RowBytes(); got != 8*1024 {
		t.Errorf("RowBytes() = %d, want 8KB", got)
	}
	if got := o.Rows; got != 128*1024 {
		t.Errorf("Rows = %d, want 128K", got)
	}
	if got := o.CapacityBytes(); got != 128<<30 {
		t.Errorf("CapacityBytes() = %d, want 128GB", got)
	}
}

func TestRankOf(t *testing.T) {
	o := DDR5Org32Gb()
	cases := []struct{ bank, rank int }{
		{0, 0}, {31, 0}, {32, 1}, {63, 1}, {96, 3}, {127, 3},
	}
	for _, c := range cases {
		if got := o.RankOf(c.bank); got != c.rank {
			t.Errorf("RankOf(%d) = %d, want %d", c.bank, got, c.rank)
		}
	}
}

func TestDDR58000BMatchesPaperTable3(t *testing.T) {
	tm := DDR5_8000B()
	cases := []struct {
		name string
		got  ticks.T
		ns   float64
	}{
		{"tRCD", tm.TRCD, 16},
		{"tCL", tm.TCL, 16},
		{"tRAS", tm.TRAS, 16},
		{"tRP", tm.TRP, 36},
		{"tRTP", tm.TRTP, 5},
		{"tWR", tm.TWR, 10},
		{"tRC", tm.TRC, 52},
		{"tRFC", tm.TRFC, 410},
		{"tREFI", tm.TREFI, 3900},
		{"tABOACT", tm.TABOACT, 180},
		{"tRFMab", tm.TRFMab, 350},
	}
	for _, c := range cases {
		if c.got.NS() != c.ns {
			t.Errorf("%s = %vns, want %vns", c.name, c.got.NS(), c.ns)
		}
	}
	if tm.TREFW.MS() != 32 {
		t.Errorf("tREFW = %vms, want 32ms", tm.TREFW.MS())
	}
}

func TestPRACSpecValidate(t *testing.T) {
	if err := DefaultPRAC(1024).Validate(); err != nil {
		t.Errorf("default PRAC spec invalid: %v", err)
	}
	bad := DefaultPRAC(1024)
	bad.NMit = 3
	if err := bad.Validate(); err == nil {
		t.Error("PRAC level 3 accepted; JEDEC allows only 1, 2 or 4")
	}
	bad = DefaultPRAC(0)
	if err := bad.Validate(); err == nil {
		t.Error("NBO=0 accepted")
	}
	off := PRACSpec{Enabled: false}
	if err := off.Validate(); err != nil {
		t.Errorf("disabled PRAC should validate trivially: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(1024).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	c := DefaultConfig(1024)
	c.Queue = QueuePriority
	c.QueueDepth = 0
	if err := c.Validate(); err == nil {
		t.Error("priority queue with depth 0 accepted")
	}
	c = DefaultConfig(1024)
	c.Org.Ranks = 0
	if err := c.Validate(); err == nil {
		t.Error("zero ranks accepted")
	}
	c = DefaultConfig(1024)
	c.Org.Rows = 1 << 31 // the largest bank whose rows all fit a counter key
	if err := c.Validate(); err != nil {
		t.Errorf("1<<31 rows rejected: %v", err)
	}
	c.Org.Rows++
	if err := c.Validate(); err == nil {
		t.Error("1<<31+1 rows accepted; row 1<<31 would not fit a counter key")
	}
	c = DefaultConfig(1024)
	c.Queue = QueueKind(99)
	if err := c.Validate(); err == nil {
		t.Error("unknown queue kind accepted")
	}
}

func TestQueueKindString(t *testing.T) {
	kinds := map[QueueKind]string{
		QueueSingleEntry: "single-entry",
		QueuePriority:    "priority",
		QueueIdeal:       "ideal",
		QueueFIFO:        "fifo",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}
