package metrics

import (
	"cmp"
	"math"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it, sorted[ceil(p/100·n)−1]. The zero value is returned for no samples.
// Every exact latency percentile in the repository goes through here;
// only the bucketed histograms (obs, monitor) estimate their own.
func Percentile[T cmp.Ordered](sorted []T, p float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	// The epsilon keeps exact products such as 0.95·20 from rounding up
	// to the next rank through float error.
	rank := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	return sorted[max(0, min(rank, len(sorted)-1))]
}
