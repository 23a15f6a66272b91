package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the q-quantile (0 < q ≤ 1) of sorted by nearest rank:
// the smallest value with at least q of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// supports reports whether n samples leave at least minBeyond of them
// above the q-quantile.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// highestPercentile returns the highest of the usual reporting percentiles
// that n samples support, or 0.5 when even the median has fewer than
// minBeyond samples beyond it.
func highestPercentile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9} {
		if supports(n, q) {
			return q
		}
	}
	return 0.5
}

// quartiles returns the three cut points dividing xs into quarters, by the
// same rule as Python's statistics.quantiles(xs, n=4) (method
// "exclusive"), so spreads computed here match the ones the benchmark's
// acceptance check computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	m := n + 1
	var cut [3]float64
	for i := 1; i <= 3; i++ {
		// Python clamps j to [1, n-1] before taking the remainder.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		cut[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut[0], cut[1], cut[2], true
}

// relativeSpread is the interquartile distance as a share of the median.
func relativeSpread(xs []float64) (float64, bool) {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0, false
	}
	return math.Abs(q3-q1) / math.Abs(q2), true
}

// failedRatio is the share of attempted operations that failed or were
// refused. A run that attempted nothing counts as entirely failed.
func failedRatio(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// durations is a growable sample of timings.
type durations []time.Duration

// sortedMicros returns the sample in microseconds, ascending.
func (d durations) sortedMicros() []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / float64(time.Microsecond)
	}
	slices.Sort(out)
	return out
}

func (d durations) sum() time.Duration {
	var s time.Duration
	for _, v := range d {
		s += v
	}
	return s
}

// median returns the median of xs (the mean of the middle pair for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}
