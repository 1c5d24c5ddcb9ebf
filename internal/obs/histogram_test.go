package obs

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// fixedHist is the reference histogram: every bucket of the geometry in
// one fixed array, the layout the compact range must reproduce.
type fixedHist struct {
	buckets            [histBuckets]int64
	count, sum, lo, hi int64
}

func (f *fixedHist) observe(d time.Duration) {
	ns := max(int64(d), 0)
	f.buckets[bucketIndex(ns)]++
	if f.count == 0 || ns < f.lo {
		f.lo = ns
	}
	if f.count == 0 || ns > f.hi {
		f.hi = ns
	}
	f.count++
	f.sum += ns
}

func (f *fixedHist) quantile(q float64) int64 {
	if f.count == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(f.count))), 1)
	cum := int64(0)
	for i, c := range f.buckets {
		if cum += c; cum >= rank {
			return min(max(bucketMid(i), f.lo), f.hi)
		}
	}
	return f.hi
}

func (f *fixedHist) stats() DurStats {
	return DurStats{
		Count: f.count, SumNS: f.sum, MinNS: f.lo, MaxNS: f.hi,
		P50NS: f.quantile(0.50), P95NS: f.quantile(0.95), P99NS: f.quantile(0.99),
	}
}

// delta is Delta's arithmetic on fixed arrays: subtract the buckets and
// bound the extrema by the non-empty bucket range.
func (f *fixedHist) delta(prev *fixedHist) DurStats {
	d := fixedHist{count: f.count - prev.count, sum: f.sum - prev.sum}
	first, last := -1, -1
	for i := range d.buckets {
		d.buckets[i] = f.buckets[i] - prev.buckets[i]
		if d.buckets[i] > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first >= 0 {
		d.lo, d.hi = bucketMid(first), bucketMid(last)
	}
	return d.stats()
}

// public strips the raw buckets so stats compare on exported fields.
func public(s DurStats) DurStats {
	s.buckets = bucketCounts{}
	return s
}

// TestCompactHistogramMatchesFixedArray checks the compact bucket range
// against the fixed-array layout over durations that grow the range at
// both ends, in both a plain snapshot and a Delta between two.
func TestCompactHistogramMatchesFixedArray(t *testing.T) {
	for _, tc := range []struct {
		name        string
		first, then []time.Duration
	}{
		{"single", []time.Duration{time.Millisecond}, []time.Duration{time.Millisecond}},
		{"zero and negative", []time.Duration{0, -time.Second}, []time.Duration{1, 2, 3}},
		{"grow down", []time.Duration{time.Second, 10 * time.Millisecond}, []time.Duration{time.Microsecond, 7 * time.Nanosecond}},
		{"grow up", []time.Duration{time.Microsecond}, []time.Duration{time.Millisecond, time.Minute, 3 * time.Hour}},
		{"both ends", []time.Duration{5 * time.Millisecond, 6 * time.Millisecond}, []time.Duration{time.Nanosecond, time.Hour, 5 * time.Millisecond}},
		{"extreme", []time.Duration{math.MaxInt64}, []time.Duration{1, math.MaxInt64 / 3}},
		{"spread", []time.Duration{
			120 * time.Microsecond, 3 * time.Millisecond, 250 * time.Millisecond, 41 * time.Millisecond,
		}, []time.Duration{
			9 * time.Millisecond, 9 * time.Millisecond, 11 * time.Millisecond, 2 * time.Second, 800 * time.Nanosecond,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := New()
			h := tr.Histogram("h")
			var ref fixedHist
			for _, d := range tc.first {
				h.Observe(d)
				ref.observe(d)
			}
			before, refBefore := tr.Snapshot(), ref
			if got, want := public(before.Durations["h"]), ref.stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("first snapshot = %+v, want %+v", got, want)
			}
			for _, d := range tc.then {
				h.Observe(d)
				ref.observe(d)
			}
			after := tr.Snapshot()
			if got, want := public(after.Durations["h"]), ref.stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("second snapshot = %+v, want %+v", got, want)
			}
			if got, want := public(Delta(before, after).Durations["h"]), ref.delta(&refBefore); !reflect.DeepEqual(got, want) {
				t.Fatalf("delta = %+v, want %+v", got, want)
			}
		})
	}
}
