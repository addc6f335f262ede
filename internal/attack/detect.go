package attack

import (
	"fmt"
	"sort"

	"pracsim/internal/ticks"
)

// SpikeDetector classifies latency samples as mitigation-induced spikes.
//
// Two latency disturbances exist in a PRAC system: RFM blocking (tRFMab,
// 350 ns — the signal) and periodic refresh blocking (tRFC, 410 ns — noise).
// Refreshes are strictly periodic per rank, so a real attacker calibrates
// on an idle interval, learns the refresh phases modulo tREFI, and discards
// spikes landing in those windows. The detector implements exactly that.
type SpikeDetector struct {
	// Threshold: latency above this is a spike.
	Threshold ticks.T

	trefi    ticks.T
	residues []ticks.T // refresh spike phases (sample issue time mod tREFI)
	guard    ticks.T
}

// CalibrateDetector builds a detector from samples taken while no sender
// was active, so every spike present is refresh-induced.
func CalibrateDetector(idle []Sample, trefi ticks.T) (*SpikeDetector, error) {
	if len(idle) == 0 {
		return nil, fmt.Errorf("attack: detector needs calibration samples")
	}
	if trefi <= 0 {
		return nil, fmt.Errorf("attack: tREFI must be positive")
	}
	lats := make([]ticks.T, len(idle))
	for i, s := range idle {
		lats[i] = s.Latency
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	baseline := lats[len(lats)/2]
	d := &SpikeDetector{
		Threshold: baseline + ticks.FromNS(250),
		trefi:     trefi,
		guard:     ticks.FromNS(600),
	}
	for _, s := range idle {
		if s.Latency > d.Threshold {
			d.residues = append(d.residues, s.At%trefi)
		}
	}
	return d, nil
}

// IsSpike reports whether the sample's latency exceeds the threshold,
// regardless of cause.
func (d *SpikeDetector) IsSpike(s Sample) bool { return s.Latency > d.Threshold }

// IsSignal reports whether the sample is a spike that does not line up with
// a calibrated refresh phase — i.e. an RFM the victim or sender caused.
func (d *SpikeDetector) IsSignal(s Sample) bool {
	if !d.IsSpike(s) {
		return false
	}
	phase := s.At % d.trefi
	for _, r := range d.residues {
		diff := phase - r
		if diff < 0 {
			diff = -diff
		}
		if diff > d.trefi/2 {
			diff = d.trefi - diff
		}
		if diff <= d.guard {
			return false
		}
	}
	return true
}

// CoincidenceDetector is the robust PRACLeak receiver: two probers running
// in banks of different ranks. A per-rank refresh (tRFC) delays only one
// prober, while an RFMab blocks the whole channel and delays both at the
// same instant — so a coincident spike pair identifies an RFM with no
// residual ambiguity from the refresh schedule.
type CoincidenceDetector struct {
	ThrA, ThrB ticks.T // spike thresholds for each prober
	Window     ticks.T // max issue-time distance of a coincident pair
}

// NewCoincidenceDetector calibrates thresholds from idle samples of both
// probers (median + 250 ns, like the single-prober detector).
func NewCoincidenceDetector(idleA, idleB []Sample) (*CoincidenceDetector, error) {
	thrA, err := spikeThreshold(idleA)
	if err != nil {
		return nil, err
	}
	thrB, err := spikeThreshold(idleB)
	if err != nil {
		return nil, err
	}
	return &CoincidenceDetector{ThrA: thrA, ThrB: thrB, Window: ticks.FromNS(600)}, nil
}

func spikeThreshold(idle []Sample) (ticks.T, error) {
	if len(idle) == 0 {
		return 0, fmt.Errorf("attack: detector needs calibration samples")
	}
	lats := make([]ticks.T, len(idle))
	for i, s := range idle {
		lats[i] = s.Latency
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[len(lats)/2] + ticks.FromNS(250), nil
}

// FirstCoincident finds the earliest spike in a that has a coincident spike
// in b, scanning only samples at or after from.
func (d *CoincidenceDetector) FirstCoincident(a, b []Sample, from ticks.T) (Sample, bool) {
	for _, sa := range a {
		if sa.At < from || sa.Latency <= d.ThrA {
			continue
		}
		if d.HasCoincident(b, sa.At) {
			return sa, true
		}
	}
	return Sample{}, false
}

// HasCoincident reports whether b contains a spike within Window of at.
// b must be ordered by At — every Prober's Samples are, since a Prober
// keeps one request in flight — so the check binary-searches to at-Window
// and scans only the samples up to at+Window.
func (d *CoincidenceDetector) HasCoincident(b []Sample, at ticks.T) bool {
	lo, hi := at-d.Window, at+d.Window
	for i := sort.Search(len(b), func(i int) bool { return b[i].At >= lo }); i < len(b) && b[i].At <= hi; i++ {
		if b[i].Latency > d.ThrB {
			return true
		}
	}
	return false
}
