package main

import (
	"fmt"
	"math"
	"sort"
)

// summary describes a sample of one metric: its size, median and
// quartiles, plus the highest percentile that still has at least ten
// samples beyond it (none below 100 samples).
type summary struct {
	N        int
	Median   float64
	P25, P75 float64
	// Tail is the value at percentile TailPct, or NaN when the sample is too
	// small to have ten values beyond any reported percentile.
	TailPct float64
	Tail    float64
}

// summarize computes the summary of xs. It does not modify xs.
func summarize(xs []float64) summary {
	s := summary{N: len(xs), Median: math.NaN(), P25: math.NaN(), P75: math.NaN(), Tail: math.NaN()}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantile(sorted, 0.5)
	s.P25 = quantile(sorted, 0.25)
	s.P75 = quantile(sorted, 0.75)
	for _, p := range []float64{0.999, 0.99, 0.9} {
		n := float64(len(sorted))
		if beyond := n - math.Ceil(p*n-1e-9); beyond >= 10 {
			s.TailPct, s.Tail = p*100, quantile(sorted, p)
			break
		}
	}
	return s
}

// opMedianSum adds up the median of each column: perPass[p][i] is op i's
// time in pass p, and every pass runs every op.
func opMedianSum(perPass [][]float64) float64 {
	if len(perPass) == 0 {
		return 0
	}
	var sum float64
	col := make([]float64, len(perPass))
	for i := range perPass[0] {
		for p, times := range perPass {
			col[p] = times[i]
		}
		sum += summarize(col).Median
	}
	return sum
}

// quantile returns the p-quantile of an ascending sample by linear
// interpolation between closest ranks (the "inclusive" method of Python's
// statistics.quantiles), so a single sample is its own every quantile.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// String renders the summary for the report table.
func (s summary) String() string {
	if math.IsNaN(s.P25) {
		return fmt.Sprintf("n=%d", s.N)
	}
	out := fmt.Sprintf("median %.6g  p25 %.6g  p75 %.6g  n=%d", s.Median, s.P25, s.P75, s.N)
	if !math.IsNaN(s.Tail) {
		out += fmt.Sprintf("  p%g %.6g", s.TailPct, s.Tail)
	}
	return out
}
