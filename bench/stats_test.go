package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return xs
}

// The expected values are Python's statistics.quantiles(range(1, n+1),
// n=4) and the median, by the same rank rule.
func TestPercentileMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		n                int
		p25, median, p75 float64
	}{
		{3, 1, 2, 3},
		{4, 1.25, 2.5, 3.75},
		{5, 1.5, 3, 4.5},
		{10, 2.75, 5.5, 8.25},
		{11, 3, 6, 9},
	}
	for _, c := range cases {
		xs := seq(c.n)
		s := summarize("s", xs)
		if s.P25 != c.p25 || s.Median != c.median || s.P75 != c.p75 || s.N != c.n {
			t.Errorf("n=%d: got p25 %g median %g p75 %g n %d, want %g %g %g %d",
				c.n, s.P25, s.Median, s.P75, s.N, c.p25, c.median, c.p75, c.n)
		}
	}
}

func TestPercentileTailsAndEdges(t *testing.T) {
	xs := seq(500)
	if got, want := percentile(xs, 0.98), 490.98; math.Abs(got-want) > 1e-9 {
		t.Errorf("p98 of 1..500 = %g, want %g (ten samples beyond it)", got, want)
	}
	if got := percentile(xs, 1); got != 500 {
		t.Errorf("p100 = %g, want the maximum", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %g, want the minimum", got)
	}
	if got := percentile([]float64{7}, 0.25); got != 7 {
		t.Errorf("quartile of one value = %g, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("median of nothing = %g, want NaN", got)
	}
}

func TestSpread(t *testing.T) {
	s := summarize("s", []float64{9, 10, 11, 10, 10})
	if got, want := s.spread(), (10.5-9.5)/10; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if got := summarize("count", []float64{0, 0, 0}).spread(); got != 0 {
		t.Errorf("spread of zeros = %g, want 0", got)
	}
}
