package main

import "sort"

// quantile returns the p-quantile (0..1) of vals by linear interpolation
// between closest ranks; vals need not be sorted. An empty input gives 0.
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	h := p * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// summary is what a timing metric reports: the median over the rounds,
// with the quartiles and the number of rounds printed beside it.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(vals []float64) summary {
	return summary{
		Median: quantile(vals, 0.5),
		Q1:     quantile(vals, 0.25),
		Q3:     quantile(vals, 0.75),
		N:      len(vals),
	}
}

// iqrPct is the interquartile range as a percentage of the median: how far
// to trust a round median on this host.
func (s summary) iqrPct() float64 {
	if s.Median == 0 {
		return 0
	}
	return 100 * (s.Q3 - s.Q1) / s.Median
}

// percentileNs returns the p-th percentile (0..100) of latencies in
// nanoseconds, nearest-rank on a sorted copy.
func percentileNs(lat []int64, p float64) int64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p / 100 * float64(len(s)-1))
	return s[idx]
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
