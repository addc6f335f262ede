package mitigation

import (
	"fmt"

	"pracsim/internal/ticks"
)

// PerBankPolicy is implemented by policies that issue fine-grained per-bank
// RFMs (RFMpb) instead of channel-blocking RFMab commands — the paper's
// Section 7.2 extension, which it leaves to future work.
type PerBankPolicy interface {
	Policy
	// DuePerBank appends to dst the banks whose per-bank RFM is due at
	// now and returns the extended slice, so a caller that reuses one
	// buffer pays no allocation per due RFM.
	DuePerBank(dst []int, now ticks.T) []int
}

// TPRACPerBank is Timing-Based RFM built on RFMpb: within each TB-Window it
// rotates one RFMpb through every bank, so each bank still receives exactly
// one activity-independent mitigation per window (the security guarantee of
// the analysis in Section 4.2 is per-bank), but each RFM blocks a single
// bank for tRFMpb instead of stalling the whole channel for tRFMab.
type TPRACPerBank struct {
	window ticks.T
	banks  int
	step   ticks.T
	next   ticks.T
	cursor int
	issued int64
}

// NewTPRACPerBank returns a per-bank TB-RFM policy for a channel with the
// given bank count.
func NewTPRACPerBank(window ticks.T, banks int) (*TPRACPerBank, error) {
	if window <= 0 {
		return nil, fmt.Errorf("mitigation: TB-Window must be positive, got %v", window)
	}
	if banks <= 0 {
		return nil, fmt.Errorf("mitigation: bank count must be positive, got %d", banks)
	}
	step := window / ticks.T(banks)
	if step <= 0 {
		return nil, fmt.Errorf("mitigation: window %v too small to rotate %d banks", window, banks)
	}
	return &TPRACPerBank{window: window, banks: banks, step: step, next: step}, nil
}

// Name implements Policy.
func (p *TPRACPerBank) Name() string { return "TPRAC-pb" }

// Window reports the configured TB-Window (one full bank rotation).
func (p *TPRACPerBank) Window() ticks.T { return p.window }

// Issued reports the number of per-bank RFMs scheduled.
func (p *TPRACPerBank) Issued() int64 { return p.issued }

// Due implements Policy: TPRACPerBank never requests channel-wide RFMs.
func (p *TPRACPerBank) Due(ticks.T) int { return 0 }

// NextDue implements Policy: the next slot of the per-bank rotation.
func (p *TPRACPerBank) NextDue(now ticks.T) ticks.T {
	if now >= p.next {
		return now
	}
	return p.next
}

// DuePerBank implements PerBankPolicy: one bank per window/banks interval,
// in a fixed rotation that is independent of memory activity.
func (p *TPRACPerBank) DuePerBank(dst []int, now ticks.T) []int {
	for now >= p.next {
		dst = append(dst, p.cursor)
		p.cursor = (p.cursor + 1) % p.banks
		p.next += p.step
		p.issued++
	}
	return dst
}

// OnActivate implements Policy; scheduling is activity-independent.
func (p *TPRACPerBank) OnActivate(int, ticks.T) {}

// OnTREF implements Policy. Skipping is not supported in the per-bank
// variant: a TREF mitigates whole ranks on the refresh cadence while the
// rotation targets single banks, so the substitution would be uneven.
func (p *TPRACPerBank) OnTREF(ticks.T) {}
