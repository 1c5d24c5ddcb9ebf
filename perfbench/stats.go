package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// opSample is one completed operation: its kind and its latency.
type opSample struct {
	kind string
	ms   float64
}

// errMixedKinds is returned when a latency summary is asked to pool
// operations of different kinds: a percentile over a mix of cheap and
// expensive operations describes neither (its mean can sit above its
// tail), so the benchmark refuses to compute one.
var errMixedKinds = errors.New("latency samples mix operation kinds")

// tailLadder lists the percentiles a tail may be reported at, highest
// first. Each workload fixes its rung (workload.tailPct); the ladder
// bounds how far a run with too few ops falls back.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyondTail is how many samples must lie above the reported tail.
const minBeyondTail = 10

// latencySummary is the latency distribution of one workload's ops.
type latencySummary struct {
	kind    string
	count   int
	p50     float64
	tailPct float64
	tail    float64
}

// summarize computes the median and the tail of samples, which must all
// be of one kind. The tail is taken at maxPct, or at the highest lower
// rung the sample supports.
func summarize(samples []opSample, maxPct float64) (latencySummary, error) {
	if len(samples) == 0 {
		return latencySummary{}, errors.New("no completed operations")
	}
	kind := samples[0].kind
	ms := make([]float64, len(samples))
	for i, s := range samples {
		if s.kind != kind {
			return latencySummary{}, fmt.Errorf("%w: %q and %q", errMixedKinds, kind, s.kind)
		}
		ms[i] = s.ms
	}
	sort.Float64s(ms)
	p := min(maxPct, tailPercentile(len(ms)))
	return latencySummary{
		kind:    kind,
		count:   len(ms),
		p50:     percentile(ms, 50),
		tailPct: p,
		tail:    percentile(ms, p),
	}, nil
}

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest value with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	// The small epsilon keeps exact products such as 0.9*100 from
	// rounding up to the next rank through float error.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the highest ladder percentile that leaves at least
// minBeyondTail of n samples above it. Below 2*minBeyondTail samples no
// rung qualifies and the median is the best the sample supports.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-nearestRank(n, p) >= minBeyondTail {
			return p
		}
	}
	return 50
}

// median returns the nearest-rank median of vals without reordering the
// caller's slice.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	steal uint64
	total uint64
}

// parseProcStat reads the aggregate cpu line of a /proc/stat document.
// Its fields are user nice system idle iowait irq softirq steal guest
// guest_nice; guest time is already counted in user and nice, so the
// total sums the first eight only. Kernels too old to report steal
// yield steal 0.
func parseProcStat(r io.Reader) (cpuTimes, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "cpu" {
			continue
		}
		vals := fields[1:]
		if len(vals) < 4 {
			return cpuTimes{}, fmt.Errorf("/proc/stat cpu line has %d fields, want at least 4", len(vals))
		}
		if len(vals) > 8 {
			vals = vals[:8]
		}
		var t cpuTimes
		for i, f := range vals {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("/proc/stat cpu field %d: %w", i+1, err)
			}
			t.total += v
			if i == 7 {
				t.steal = v
			}
		}
		return t, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTimes{}, fmt.Errorf("read /proc/stat: %w", err)
	}
	return cpuTimes{}, errors.New("/proc/stat has no aggregate cpu line")
}

// stealPct is the share of CPU time the hypervisor stole between two
// readings, in percent.
func stealPct(before, after cpuTimes) float64 {
	if after.total <= before.total || after.steal < before.steal {
		return 0
	}
	return 100 * float64(after.steal-before.steal) / float64(after.total-before.total)
}
