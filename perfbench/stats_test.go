package main

import (
	"math"
	"testing"
)

func TestSummarizeQuartilesAndCount(t *testing.T) {
	// Inclusive quartiles, as statistics.quantiles(xs, n=4, method="inclusive").
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.Median != 3 || s.P25 != 2 || s.P75 != 4 {
		t.Fatalf("summary %+v, want n=5 median 3 p25 2 p75 4", s)
	}
	s = summarize([]float64{1, 2, 3, 4})
	if s.Median != 2.5 || s.P25 != 1.75 || s.P75 != 3.25 {
		t.Fatalf("summary %+v, want median 2.5 p25 1.75 p75 3.25", s)
	}
	s = summarize([]float64{7})
	if s.N != 1 || s.Median != 7 || s.P25 != 7 || s.P75 != 7 {
		t.Fatalf("single sample %+v", s)
	}
	if s := summarize(nil); s.N != 0 || !math.IsNaN(s.Median) {
		t.Fatalf("empty sample %+v", s)
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestSummarizeTailNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	if s := summarize(seq(99)); !math.IsNaN(s.Tail) {
		t.Fatalf("99 samples report p%g; none has ten samples beyond it", s.TailPct)
	}
	if s := summarize(seq(100)); s.TailPct != 90 || s.Tail != quantile(seq(100), 0.9) {
		t.Fatalf("100 samples: tail p%g = %v, want p90", s.TailPct, s.Tail)
	}
	if s := summarize(seq(1000)); s.TailPct != 99 {
		t.Fatalf("1000 samples: tail p%g, want p99", s.TailPct)
	}
}

func TestOpMedianSumTakesEachOpsMedian(t *testing.T) {
	perPass := [][]float64{
		{3, 1, 5},
		{2, 4, 6},
		{9, 2, 4},
		{1, 8, 7},
	}
	if got := opMedianSum(perPass); got != 2.5+3+5.5 {
		t.Fatalf("opMedianSum = %v, want 11", got)
	}
	if got := opMedianSum(nil); got != 0 {
		t.Fatalf("no passes: opMedianSum = %v", got)
	}
}
