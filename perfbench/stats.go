package main

import (
	"math"
	"sort"
)

// unbounded is the latency recorded for a failed or shed request: it
// misses every latency limit, so it sorts above every measured sample.
const unbounded = math.MaxInt64

// quantile returns the q-quantile (0 < q < 1) of sorted samples by the
// nearest-rank rule: the smallest sample with at least q of the samples
// at or below it. It returns 0 for no samples.
func quantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := atOrBelow(q, n) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// atOrBelow is the number of the n samples at or below the q-quantile:
// ceil(q·n), with float noise in q·n (0.999·10000 = 9990.000000000002)
// rounded away.
func atOrBelow(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest of tailPercentiles that leaves at least ten
// samples beyond it, with its value. ok is false when even the median
// leaves fewer than ten samples beyond it.
func tail(sorted []int64) (pct float64, v int64, ok bool) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		if n-atOrBelow(p/100, n) >= 10 {
			return p, quantile(sorted, p/100), true
		}
	}
	return 0, 0, false
}

// sortedCopy returns the samples sorted ascending, leaving the input as is.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// medianF returns the median of xs (0 for none).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }
