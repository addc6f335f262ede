package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs at rank p·(n+1),
// counted from 1 and interpolated linearly between neighbours — the rule
// of Python's statistics.quantiles (default "exclusive" method), so the
// quartiles of three or more values match it exactly. Ranks outside
// [1, n] clamp to the smallest or largest sample where Python would
// extrapolate. The median is percentile 0.5. An empty sample has no
// quantile: NaN.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p * float64(n+1)
	switch {
	case rank <= 1:
		return s[0]
	case rank >= float64(n):
		return s[n-1]
	}
	lo := int(rank) // 1-based index of the lower neighbour
	frac := rank - float64(lo)
	return s[lo-1] + frac*(s[lo]-s[lo-1])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// summary is one metric over the repetitions of a workload: the median,
// the quartiles and every value, so a later comparison can test
// run-by-run dominance.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	P25    float64   `json:"p25"`
	P75    float64   `json:"p75"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, xs []float64) summary {
	return summary{
		Unit:   unit,
		Median: median(xs),
		P25:    percentile(xs, 0.25),
		P75:    percentile(xs, 0.75),
		N:      len(xs),
		Values: append([]float64(nil), xs...),
	}
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		if s.P75 == s.P25 {
			return 0
		}
		return math.Inf(1)
	}
	return (s.P75 - s.P25) / math.Abs(s.Median)
}
