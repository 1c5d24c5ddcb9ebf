package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		vals []float64
		p    float64
		want float64
	}{
		{ten, 0, 1},
		{ten, 10, 1},
		{ten, 11, 2},
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 95, 10},
		{ten, 100, 10},
		{[]float64{7}, 99.9, 7},
		{[]float64{1, 2, 3, 4}, 75, 3},
	} {
		if got := percentile(tc.vals, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.vals, tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50},
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	for n := 2 * minBeyondTail; n <= 20000; n++ {
		p := tailPercentile(n)
		if beyond := n - nearestRank(n, p); beyond < minBeyondTail {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it", n, p, beyond)
		}
		for _, higher := range tailLadder {
			if higher > p && n-nearestRank(n, higher) >= minBeyondTail {
				t.Fatalf("n=%d: picked p%g but p%g also leaves %d beyond", n, p, higher, minBeyondTail)
			}
		}
	}
}

func TestSummarizeRefusesMixedKinds(t *testing.T) {
	_, err := summarize([]opSample{{"infer", 1}, {"train", 500}, {"infer", 2}}, 99)
	if !errors.Is(err, errMixedKinds) {
		t.Fatalf("summarize over mixed kinds: err = %v, want errMixedKinds", err)
	}
	if _, err := summarize(nil, 99); err == nil {
		t.Fatal("summarize over no samples should fail")
	}
	var samples []opSample
	for i := 60; i >= 1; i-- {
		samples = append(samples, opSample{"infer", float64(i)})
	}
	s, err := summarize(samples, 99)
	if err != nil {
		t.Fatal(err)
	}
	if s.count != 60 || s.p50 != 30 || s.tailPct != 75 || s.tail != 45 {
		t.Fatalf("summary = %+v, want n=60 p50=30 p75=45", s)
	}
	// A workload's fixed rung caps the tail even when more ops would
	// support a higher one.
	if s, err := summarize(samples, 50); err != nil || s.tailPct != 50 || s.tail != 30 {
		t.Fatalf("summary capped at p50 = %+v, %v", s, err)
	}
}

func TestParseProcStat(t *testing.T) {
	const doc = "cpu  100 5 50 800 10 2 3 30 7 0\ncpu0 50 2 25 400 5 1 1 15 3 0\nintr 12345\n"
	got, err := parseProcStat(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	// Guest time (7) is already inside user time and stays out of the total.
	if want := (cpuTimes{steal: 30, total: 100 + 5 + 50 + 800 + 10 + 2 + 3 + 30}); got != want {
		t.Fatalf("parseProcStat = %+v, want %+v", got, want)
	}
	// A kernel that predates the steal column reports none.
	old, err := parseProcStat(strings.NewReader("cpu 1 2 3 4\n"))
	if err != nil || old != (cpuTimes{steal: 0, total: 10}) {
		t.Fatalf("four-field cpu line: %+v, %v", old, err)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4\n", "cpu 1 2\n", "cpu 1 2 x 4\n"} {
		if _, err := parseProcStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProcStat(%q) should fail", bad)
		}
	}
	after := cpuTimes{steal: 30 + 25, total: 1000 + 500}
	if p := stealPct(got, after); math.Abs(p-5) > 1e-12 {
		t.Fatalf("stealPct = %g, want 5", p)
	}
	if p := stealPct(after, got); p != 0 {
		t.Fatalf("stealPct over a counter reset = %g, want 0", p)
	}
}

func TestMedian(t *testing.T) {
	vals := []float64{3, 1, 2, 10}
	if m := median(vals); m != 2 {
		t.Fatalf("median = %g, want 2", m)
	}
	if vals[0] != 3 {
		t.Fatal("median reordered its input")
	}
	if m := median([]float64{4, 1, 9}); m != 4 {
		t.Fatalf("median = %g, want 4", m)
	}
}

// The metrics a run prints must be exactly those BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(section string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", section, len(declared), len(printed))
		}
		for i, d := range declared {
			if d.Name != printed[i].name || d.Unit != printed[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					section, i, d.Name, d.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := workloadNames(); !slices.Equal(declared, got) {
		t.Errorf("BENCHMARK.json declares workloads %v, the benchmark runs %v", declared, got)
	}
}
