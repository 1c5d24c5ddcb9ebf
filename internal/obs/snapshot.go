package obs

import "sort"

// DurStats summarises one duration population (a span name or an explicit
// histogram): exact count/sum/extrema plus approximate quantiles.
// Durations are nanoseconds, the native unit of the monotonic clock.
type DurStats struct {
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	MinNS int64 `json:"min_ns"`
	MaxNS int64 `json:"max_ns"`
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	P99NS int64 `json:"p99_ns"`

	// buckets carries the raw histogram for Delta arithmetic; it is
	// process-internal and deliberately not serialized.
	buckets bucketCounts
}

// MeanNS returns the mean duration in nanoseconds.
func (d DurStats) MeanNS() int64 {
	if d.Count == 0 {
		return 0
	}
	return d.SumNS / d.Count
}

// GaugeStats is the snapshot view of one gauge.
type GaugeStats struct {
	Last float64 `json:"last"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	N    int64   `json:"n"`
}

// Snapshot is a plain-data view of every instrument a tracer holds. It is
// attached to metrics.RunResult and round-trips through the existing JSON
// export; quantile fields survive serialization, raw buckets do not.
type Snapshot struct {
	Counters  map[string]int64      `json:"counters,omitempty"`
	Gauges    map[string]GaugeStats `json:"gauges,omitempty"`
	Durations map[string]DurStats   `json:"durations,omitempty"`
	Infos     map[string]string     `json:"infos,omitempty"`
}

// Snapshot captures the current state of all instruments. Returns nil on
// a nil tracer, which JSON-omits cleanly from RunResult.
func (t *Tracer) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	t.imu.Lock()
	defer t.imu.Unlock()
	s := &Snapshot{
		Counters:  make(map[string]int64, len(t.counts)),
		Gauges:    make(map[string]GaugeStats, len(t.gauges)),
		Durations: make(map[string]DurStats, len(t.hists)),
	}
	for name, c := range t.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range t.gauges {
		last, min, max, n := g.stats()
		s.Gauges[name] = GaugeStats{Last: last, Min: min, Max: max, N: n}
	}
	for name, h := range t.hists {
		s.Durations[name] = h.stats()
	}
	if len(t.infos) > 0 {
		s.Infos = make(map[string]string, len(t.infos))
		for name, i := range t.infos {
			s.Infos[name] = i.Value()
		}
	}
	return s
}

// Delta returns the change from prev to cur: counters and duration
// populations subtract (quantiles recomputed from the bucket difference),
// gauges keep cur's state. A nil prev returns cur unchanged; a nil cur
// returns nil. Used to scope suite-cumulative telemetry to a single run.
func Delta(prev, cur *Snapshot) *Snapshot {
	if cur == nil {
		return nil
	}
	if prev == nil {
		return cur
	}
	out := &Snapshot{
		Counters:  make(map[string]int64, len(cur.Counters)),
		Gauges:    make(map[string]GaugeStats, len(cur.Gauges)),
		Durations: make(map[string]DurStats, len(cur.Durations)),
	}
	for name, v := range cur.Counters {
		d := v - prev.Counters[name]
		if d != 0 {
			out.Counters[name] = d
		}
	}
	for name, g := range cur.Gauges {
		if p, ok := prev.Gauges[name]; !ok || g.N != p.N {
			out.Gauges[name] = g
		}
	}
	// Infos are identity, not arithmetic: the delta keeps cur's values
	// (the cell a run-scoped delta describes is the run's own cell).
	if len(cur.Infos) > 0 {
		out.Infos = make(map[string]string, len(cur.Infos))
		for name, v := range cur.Infos {
			out.Infos[name] = v
		}
	}
	for name, c := range cur.Durations {
		p, ok := prev.Durations[name]
		if !ok {
			out.Durations[name] = c
			continue
		}
		if c.Count == p.Count {
			continue
		}
		var h Histogram
		for k, n := range c.buckets.n {
			h.counts.add(c.buckets.lo+k, n)
		}
		for k, n := range p.buckets.n {
			h.counts.add(p.buckets.lo+k, -n)
		}
		h.count = c.Count - p.Count
		h.sum = c.SumNS - p.SumNS
		// Extrema of the delta population are unknowable from aggregates;
		// bound them by the bucket range of the delta counts.
		h.min, h.max = h.counts.nonEmpty()
		out.Durations[name] = h.stats()
	}
	return out
}

// DurationNames returns the duration keys sorted by total time descending
// (ties by name) — the rendering order of the summary table.
func (s *Snapshot) DurationNames() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.Durations))
	for n := range s.Durations {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := s.Durations[names[i]], s.Durations[names[j]]
		if a.SumNS != b.SumNS {
			return a.SumNS > b.SumNS
		}
		return names[i] < names[j]
	})
	return names
}

// CounterNames returns the counter keys sorted alphabetically.
func (s *Snapshot) CounterNames() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GaugeNames returns the gauge keys sorted alphabetically.
func (s *Snapshot) GaugeNames() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.Gauges))
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// InfoNames returns the info keys sorted alphabetically.
func (s *Snapshot) InfoNames() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.Infos))
	for n := range s.Infos {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
