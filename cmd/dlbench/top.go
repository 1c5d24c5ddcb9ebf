package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/monitor"
	"repro/internal/server"
)

// runTop implements `dlbench top`: a polling terminal dashboard over a
// running daemon's /status and /metrics endpoints. Each frame shows the
// queue depth, every in-flight job with the lifecycle span it
// is currently inside, rolling p50/p95 per stage (queue wait, execution,
// end-to-end — scraped from the dlbench_server_*_seconds summaries), and
// the resource monitor's heap/CPU/GC columns. It needs nothing from the
// daemon beyond the two endpoints it already serves, so it works against
// any reachable instance.
func runTop(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dlbench top", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8080", "daemon address (host:port)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	frames := fs.Int("n", 0, "render this many frames then exit (0 runs until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("top takes no positional arguments, got %q", fs.Args())
	}
	base := "http://" + *addr
	hc := &http.Client{Timeout: 10 * time.Second}
	clear := isTerminalWriter(out)
	for n := 0; *frames == 0 || n < *frames; n++ {
		if n > 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(*interval):
			}
		}
		st, quants, err := scrapeTop(hc, base)
		if err != nil {
			return fmt.Errorf("top: %w", err)
		}
		if clear {
			fmt.Fprint(out, "\x1b[H\x1b[2J")
		}
		renderTopFrame(out, base, st, quants)
	}
	return nil
}

// topStatus mirrors the daemon's /status document: the generic process
// fields plus the embedded job-core view.
type topStatus struct {
	UptimeSeconds float64            `json:"uptime_seconds"`
	Monitor       *monitor.Sample    `json:"monitor"`
	Server        *server.StatusView `json:"server"`
	Counters      map[string]int64   `json:"counters"`
}

// scrapeTop fetches one dashboard frame's worth of state: the /status
// JSON and the stage-latency summaries from /metrics.
func scrapeTop(hc *http.Client, base string) (*topStatus, map[string]map[string]float64, error) {
	resp, err := hc.Get(base + "/status")
	if err != nil {
		return nil, nil, err
	}
	var st topStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("decode /status: %w", err)
	}
	resp, err = hc.Get(base + "/metrics")
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("read /metrics: %w", err)
	}
	return &st, parseSummaryQuantiles(string(body)), nil
}

// parseSummaryQuantiles extracts every `family{quantile="q"} v` sample
// from a Prometheus 0.0.4 text exposition, keyed family -> quantile.
// Families without quantile labels (counters, gauges) land under the ""
// quantile so the dashboard can read gauges from the same map.
func parseSummaryQuantiles(text string) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[sp+1:]), 64)
		if err != nil {
			continue
		}
		name, q := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			labels := name[i:]
			name = name[:i]
			if j := strings.Index(labels, `quantile="`); j >= 0 {
				rest := labels[j+len(`quantile="`):]
				if k := strings.IndexByte(rest, '"'); k >= 0 {
					q = rest[:k]
				}
			}
		}
		m, ok := out[name]
		if !ok {
			m = make(map[string]float64)
			out[name] = m
		}
		m[q] = v
	}
	return out
}

// renderTopFrame writes one dashboard frame.
func renderTopFrame(out io.Writer, base string, st *topStatus, quants map[string]map[string]float64) {
	header := fmt.Sprintf("dlbench top — %s  uptime %s", base, time.Duration(st.UptimeSeconds*float64(time.Second)).Round(time.Second))
	sv := st.Server
	if sv != nil && sv.Draining {
		header += "  [DRAINING]"
	}
	fmt.Fprintln(out, header)
	if sv != nil {
		occ := 0.0
		if m, ok := quants["dlbench_server_worker_occupancy"]; ok {
			occ = m[""]
		}
		fmt.Fprintf(out, "workers %d  inflight %d  occupancy %.0f%%\n", sv.Workers, sv.Inflight, occ*100)
		fmt.Fprintf(out, "queue depth %d\n", sv.QueueDepth)
	}

	fmt.Fprintf(out, "\n%-12s %12s %12s %8s\n", "stage", "p50", "p95", "count")
	for _, stage := range []struct{ label, family string }{
		{"queue_wait", "dlbench_server_queue_wait_seconds"},
		{"exec", "dlbench_server_exec_seconds"},
		{"e2e", "dlbench_server_e2e_seconds"},
	} {
		m := quants[stage.family]
		count := int64(quants[stage.family+"_count"][""])
		fmt.Fprintf(out, "%-12s %12s %12s %8d\n",
			stage.label, topSeconds(m["0.5"]), topSeconds(m["0.95"]), count)
	}

	if smp := st.Monitor; smp != nil {
		fmt.Fprintf(out, "\nmonitor: heap %s  live %s  goroutines %d  cpu %.1f%%  gc %d (p50 %s p99 %s)\n",
			topBytes(smp.HeapInuseBytes), topBytes(smp.HeapLiveBytes), smp.Goroutines, smp.CPUPct,
			smp.GCCount, topSeconds(float64(smp.GCPauseP50NS)/1e9), topSeconds(float64(smp.GCPauseP99NS)/1e9))
	}

	if sv != nil {
		fmt.Fprintf(out, "\n%-8s %-10s %-18s %8s  %s\n", "job", "state", "span", "attempts", "cell")
		jobs := append([]server.ActiveJob(nil), sv.ActiveJobs...)
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
		if len(jobs) == 0 {
			fmt.Fprintln(out, "(idle — no active jobs)")
		}
		for _, j := range jobs {
			span := j.Span
			if span == "" {
				span = "-"
			}
			fmt.Fprintf(out, "%-8s %-10s %-18s %8d  %s\n", j.ID, j.State, span, j.Attempts, j.Cell)
		}
	}
}

// topSeconds renders a duration-in-seconds with a sensible unit.
func topSeconds(s float64) string {
	if s <= 0 {
		return "-"
	}
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// topBytes renders a byte count in MiB.
func topBytes(b uint64) string {
	return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
}

// isTerminalWriter reports whether out is an interactive terminal, in
// which case frames repaint in place via ANSI clear; piped output gets
// plain sequential frames.
func isTerminalWriter(out io.Writer) bool {
	f, ok := out.(*os.File)
	if !ok {
		return false
	}
	info, err := f.Stat()
	if err != nil {
		return false
	}
	return info.Mode()&os.ModeCharDevice != 0
}
