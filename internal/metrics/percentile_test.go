package metrics

import (
	"testing"
	"time"
)

// TestPercentileNearestRank pins the ceil(p·n)−1 index on the sample
// sizes where the old implementations went wrong: a truncated
// p·(n−1) index reports the second-largest of 50 samples as p99, and a
// rounded p·n misses the nearest rank of p95 at n=13.
func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 50, 1},
		{1, 99, 1},
		{2, 50, 1},
		{2, 95, 2},
		{10, 50, 5},
		{10, 90, 9},
		{10, 95, 10},
		{13, 95, 13},
		{13, 50, 7},
		{20, 95, 19},
		{20, 99, 20},
		{50, 99, 50},
		{50, 50, 25},
		{100, 99, 99},
		{100, 100, 100},
	} {
		if got := Percentile(seq(tc.n), tc.p); got != tc.want {
			t.Errorf("Percentile(1..%d, %g) = %g, want %g", tc.n, tc.p, got, tc.want)
		}
	}
	if got := Percentile([]float64(nil), 50); got != 0 {
		t.Errorf("Percentile(empty) = %g, want 0", got)
	}
	durs := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if got := Percentile(durs, 99); got != 3*time.Millisecond {
		t.Errorf("Percentile(durations, 99) = %v, want 3ms", got)
	}
}
