// Command perfbench is the repository's end-to-end benchmark. One run
// executes one named workload against the repository's packages, checks
// every output, and prints its metrics as the last line of standard
// output:
//
//	perfbench --workload train-cifar --seed 1 --seconds 40 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the separate traced run: half the window untraced, half traced, and
// it prints the per-layer metrics. README.md describes the workloads, the
// metrics and how to read a traced run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/monitor"
	"repro/internal/obs"
)

// setupRepeats is how many times a run sets its workload up. setup_s is
// the median; the last set-up is the one measured.
const setupRepeats = 3

// runLimit bounds a whole run, set-up included, well inside the time a
// caller allows one run.
const runLimit = 170 * time.Second

// workload is one named traffic mix.
type workload struct {
	name string
	// clients is the number of closed-loop clients driving the session.
	clients int
	// tailPct is the workload's tail percentile: the highest ladder rung
	// that every run's op count supported when the benchmark was defined.
	// It stays fixed so that tails of later runs remain comparable; a run
	// with too few ops for it falls back to a lower rung.
	tailPct float64
	setup   func(ctx context.Context, seed uint64, tr *obs.Tracer) (session, setupInfo, error)
}

// setupInfo is what a set-up reports besides its own duration.
type setupInfo struct {
	synthS float64 // seconds of dataset synthesis
	trainS float64 // seconds of model training
	// Warm-up operations run during set-up. Their failed checks count
	// against the run like failed timed operations.
	warmAttempted, warmFailed int
}

// session is one set-up workload, ready to run operations.
type session interface {
	// kind names the single kind of operation the session runs.
	kind() string
	// unitsPerOp is what one op adds to throughput_per_s: samples for a
	// training iteration, 1 for a request or a job.
	unitsPerOp() float64
	// describe summarizes the session's checks for the run log.
	describe() string
	// op runs one operation for client c; a non-nil error fails the op.
	// traced selects the instrumented path.
	op(ctx context.Context, c int, traced bool) error
	// layers derives the workload's per-layer metrics from the traced
	// phase t.
	layers(ctx context.Context, t *phaseResult) (map[string]float64, error)
	close() error
}

// workloads lists every workload the command runs, as BENCHMARK.json does.
var workloads = map[string]workload{
	"train-cifar": {name: "train-cifar", clients: 1, tailPct: 75, setup: setupTrain},
	"serve-b1":    {name: "serve-b1", clients: serveClients, tailPct: 95, setup: setupServe},
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, as BENCHMARK.json does.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_heap_mib", "MiB"},
}

// perLayer lists the metrics of a traced run, as BENCHMARK.json does. A
// layer that a workload never reaches reports 0.
var perLayer = []metricDef{
	{"process.cpu_ms_per_op", "ms"},
	{"process.cores_busy", "cores"},
	{"process.alloc_kib_per_op", "KiB"},
	{"process.gc_cycles", "count"},
	{"host.steal_pct", "%"},
	{"obs.overhead_pct", "%"},
	{"data.synth_s", "s"},
	{"core.train_s", "s"},
	{"data.next_ms", "ms"},
	{"framework.preprocess_ms", "ms"},
	{"optim.step_ms", "ms"},
	{"engine.forward_ms", "ms"},
	{"engine.backward_ms", "ms"},
	{"engine.predict_ms", "ms"},
	{"engine.dispatch_overhead_ms", "ms"},
	{"engine.dispatches", "count"},
	{"nn.conv_fwd_ms", "ms"},
	{"nn.conv_bwd_ms", "ms"},
	{"nn.dense_fwd_ms", "ms"},
	{"nn.dense_bwd_ms", "ms"},
	{"nn.pool_ms", "ms"},
	{"nn.act_ms", "ms"},
	{"nn.norm_ms", "ms"},
	{"nn.loss_ms", "ms"},
	{"nn.bwd_fwd_ratio", "ratio"},
	{"tensor.gflops", "GFLOP/s"},
	{"server.submit_ms", "ms"},
	{"server.journal_fsync_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.exec_ms", "ms"},
	{"server.attrib_gap_ms", "ms"},
	{"server.worker_busy_share", "share"},
	{"server.rejected", "count"},
	{"core.infer_job_ms", "ms"},
}

// phaseResult is what one timed phase observed.
type phaseResult struct {
	samples   []opSample
	attempted int
	failed    int
	// wall runs from the phase start to the end of its last op.
	wall time.Duration
	proc processDelta
	lat  latencySummary
}

// runPhase drives the session's clients in closed loops for d: each
// client starts a new op while the phase has time left, and the phase
// ends when every client's last op has returned.
func runPhase(ctx context.Context, w workload, s session, d time.Duration, traced bool) (*phaseResult, error) {
	res := &phaseResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	before := snapshotProcess()
	deadline := before.wall.Add(d)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				start := time.Now()
				err := s.op(ctx, c, traced)
				ms := float64(time.Since(start).Nanoseconds()) / 1e6
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if res.failed <= 5 {
						fmt.Fprintf(os.Stderr, "perfbench: failed op: %v\n", err)
					}
				} else {
					res.samples = append(res.samples, opSample{kind: s.kind(), ms: ms})
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	after := snapshotProcess()
	res.proc = before.to(after)
	res.wall = res.proc.wall
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lat, err := summarize(res.samples, w.tailPct)
	if err != nil {
		return nil, err
	}
	res.lat = lat
	return res, nil
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 40, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 makes this the traced run, which prints the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s --seed N --seconds N --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	rep, err := run(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// warmupOps runs n untimed ops from client 0 as part of a set-up.
func warmupOps(ctx context.Context, s session, n int, info *setupInfo) error {
	for i := 0; i < n; i++ {
		info.warmAttempted++
		if err := s.op(ctx, 0, false); err != nil {
			if ctx.Err() != nil {
				return err
			}
			info.warmFailed++
			fmt.Fprintf(os.Stderr, "perfbench: failed warm-up op: %v\n", err)
		}
	}
	return nil
}

// settle collects set-up garbage and returns freed memory to the OS, so
// that collections during the timed window are paid by the window's own
// allocations.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

func run(ctx context.Context, w workload, seed uint64, window time.Duration, traced bool) (*report, error) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, seed, window.Seconds(), traced)
	fmt.Printf("host %s\n", fingerprint())
	sampler := monitor.New(monitor.Config{Interval: 10 * time.Millisecond, RingSize: 1 << 15})
	sampler.Start()
	defer sampler.Stop()
	var tr *obs.Tracer
	if traced {
		tr = obs.New()
		tr.EnableProfiling()
	}

	rep := &report{Metrics: map[string]metric{}}
	var sess session
	var setupS, synthS, trainS []float64
	for i := 0; i < setupRepeats; i++ {
		if sess != nil {
			if err := sess.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i, err)
			}
			sess = nil
		}
		start := time.Now()
		s, info, err := w.setup(ctx, seed, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		settle()
		setupS = append(setupS, time.Since(start).Seconds())
		synthS = append(synthS, info.synthS)
		trainS = append(trainS, info.trainS)
		rep.Attempted += info.warmAttempted
		rep.Failed += info.warmFailed
		sess = s
	}
	defer func() {
		if err := sess.close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: close %s: %v\n", w.name, err)
		}
	}()
	fmt.Printf("setup_s %s (median of %d)\n", fmtList(setupS), setupRepeats)

	phases := []bool{false}
	if traced {
		// Half the window untraced, for the process metrics and the
		// overhead baseline, then half traced.
		window /= 2
		phases = []bool{false, true}
	}
	var results []*phaseResult
	for _, t := range phases {
		p, err := runPhase(ctx, w, sess, window, t)
		if err != nil {
			return nil, err
		}
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		fmt.Printf("phase traced=%v: ops=%d failed=%d wall=%.3fs steal=%.2f%% cpu=%.3fs gc=%d\n",
			t, p.attempted, p.failed, p.wall.Seconds(), p.proc.stealPct, p.proc.cpu.Seconds(), p.proc.gcCycles)
		fmt.Printf("  latency %s: n=%d p50=%.4fms p%g=%.4fms\n", p.lat.kind, p.lat.count, p.lat.p50, p.lat.tailPct, p.lat.tail)
		results = append(results, p)
	}
	rep.Correct = rep.Failed == 0
	fmt.Println(sess.describe())

	if !traced {
		p := results[0]
		sum := sampler.Summary()
		rep.set(endToEnd, map[string]float64{
			"setup_s":          median(setupS),
			"throughput_per_s": float64(len(p.samples)) * sess.unitsPerOp() / p.wall.Seconds(),
			"latency_p50_ms":   p.lat.p50,
			"latency_tail_ms":  p.lat.tail,
			"peak_heap_mib":    float64(sum.PeakHeapInuseBytes) / (1 << 20),
		})
		return rep, nil
	}

	u, t := results[0], results[1]
	vals, err := sess.layers(ctx, t)
	if err != nil {
		return nil, fmt.Errorf("layer metrics: %w", err)
	}
	n := float64(u.attempted)
	vals["process.cpu_ms_per_op"] = float64(u.proc.cpu.Nanoseconds()) / 1e6 / n
	vals["process.cores_busy"] = u.proc.cpu.Seconds() / u.proc.wall.Seconds()
	vals["process.alloc_kib_per_op"] = float64(u.proc.allocB) / 1024 / n
	vals["process.gc_cycles"] = float64(u.proc.gcCycles)
	vals["host.steal_pct"] = u.proc.stealPct
	vals["obs.overhead_pct"] = 100 * (t.lat.p50 - u.lat.p50) / u.lat.p50
	vals["data.synth_s"] = median(synthS)
	vals["core.train_s"] = median(trainS)
	rep.set(perLayer, vals)
	printLayerTable(rep)
	return rep, nil
}

// set fills the report with every metric of defs, taking values from
// vals; a metric absent from vals is a layer the workload never reaches
// and reads 0.
func (r *report) set(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
}

func printLayerTable(r *report) {
	fmt.Println("layer table (per op unless the unit says otherwise; 0 = layer not on this workload's path)")
	for _, d := range perLayer {
		fmt.Printf("  %-30s %14.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
}

func fmtList(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
