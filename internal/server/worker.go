package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/resilience"
)

// RunFunc executes one job attempt on the given worker and returns its
// result. The production implementation trains the job's cell over the
// existing executors; tests substitute stubs to exercise the robustness
// machinery without training.
type RunFunc func(ctx context.Context, worker int, j *Job) (*metrics.RunResult, error)

// worker is one service loop: it runs the oldest queued job whenever it
// is idle, and exits when drain starts (after finishing the job in hand —
// that is the graceful half of the drain contract).
func (s *Server) worker(id int) {
	defer s.wg.Done()
	for !s.Draining() {
		j := s.q.next()
		if j == nil {
			return
		}
		s.gQueueDepth.Set(float64(s.q.depth()))
		s.runJob(id, j)
	}
}

// runJob drives one job through its attempt loop: per-attempt deadline,
// panic containment, jittered-backoff retries for failures the platform
// understands as transient, and journaled terminal transitions. A job
// interrupted by the hard-stop deadline is left non-terminal so the
// journal recovers it on the next start.
func (s *Server) runJob(worker int, j *Job) {
	j.coBase, j.coSeq = s.inflight.Add(1)-1, s.started.Add(1)
	s.setOccupancy()
	defer func() {
		s.inflight.Add(-1)
		s.setOccupancy()
	}()

	// The worker has the job: close its queue-wait span (opened by the
	// admission handler or the recovery loop) and feed the stage
	// histogram behind dlbench_server_queue_wait_seconds.
	if wait, ok := j.endQueueWait(); ok {
		s.hQueueWait.Observe(wait)
	}

	timeout := s.cfg.JobTimeout
	if j.Spec.TimeoutMS > 0 {
		timeout = time.Duration(j.Spec.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxJobTimeout {
		timeout = s.cfg.MaxJobTimeout
	}

	for {
		j.start()
		// "shard" names the worker index; event readers key on it.
		j.tracer.Emit("job.start", map[string]any{
			"id": j.ID, "attempt": j.attempt(), "shard": worker, "cell": j.Spec.Framework + "/" + j.Spec.Dataset,
		})
		start := time.Now()
		exec := j.tracer.Span(SpanExec, "server")
		ctx, cancel := context.WithTimeout(s.hardCtx, timeout)
		res, err := s.runAttempt(ctx, worker, j)
		cancel()
		exec.End()
		attemptDur := time.Since(start)
		j.addExec(attemptDur, s.coRunning(j))
		s.hExec.Observe(attemptDur)
		if err == nil {
			s.observeJobSeconds(attemptDur.Seconds())
			s.reportJob(j, res, nil, StateCompleted)
			s.cCompleted.Inc()
			return
		}
		// Hard stop during drain: the process is going away. Leave the job
		// non-terminal (its journal submit has no matching state record),
		// so restart recovery re-runs it — accepted work is never lost.
		if s.hardCtx.Err() != nil {
			s.logf("job %s interrupted by hard stop; left journaled for recovery", j.ID)
			j.requeue()
			return
		}
		if s.retryable(err) && j.attempt() < 1+s.cfg.JobRetries {
			s.cRetries.Inc()
			delay := resilience.JitteredBackoff(j.attempt()-1, s.cfg.RetryBase, s.cfg.RetryMax)
			j.tracer.Emit("job.retry", map[string]any{"id": j.ID, "attempt": j.attempt(), "delay_ms": delay.Milliseconds(), "error": err.Error()})
			j.requeue()
			backoff := j.tracer.Span(SpanBackoff, "server")
			serr := resilience.Sleep(s.hardCtx, delay)
			backoff.End()
			if serr != nil {
				return
			}
			continue
		}
		s.reportJob(j, nil, err, StateFailed)
		s.cFailed.Inc()
		return
	}
}

// reportJob is the terminal stage: the job.done event, the in-memory
// finish, the journaled state transition, and the e2e latency
// observation — bracketed by the job.report span so the trace's root
// timeline extends to (essentially) the job's terminal timestamp.
func (s *Server) reportJob(j *Job, res *metrics.RunResult, err error, st State) {
	report := j.tracer.Span(SpanReport, "server")
	fields := map[string]any{"id": j.ID, "state": string(st)}
	if err != nil {
		fields["error"] = err.Error()
	}
	j.tracer.Emit("job.done", fields)
	j.finish(res, err)
	s.journalState(j.ID, st)
	report.End()
	if v := j.View(); v.E2ESeconds > 0 {
		s.hE2E.Observe(time.Duration(v.E2ESeconds * float64(time.Second)))
	}
}

// coRunning is how many other jobs ran at the same time as j so far: the
// jobs in flight when j began, plus every job that began since.
func (s *Server) coRunning(j *Job) int64 {
	return j.coBase + s.started.Load() - j.coSeq
}

// setOccupancy publishes in-flight jobs as a fraction of the worker pool.
func (s *Server) setOccupancy() {
	n := float64(s.inflight.Load())
	s.gInflight.Set(n)
	s.gOccupancy.Set(n / float64(s.cfg.Workers))
}

// runAttempt executes one attempt under panic containment: a panic
// anywhere in the run path (suite construction, data synthesis, executor
// dispatch beyond the engine's own recovery) fails this job alone and the
// worker keeps serving.
func (s *Server) runAttempt(ctx context.Context, worker int, j *Job) (res *metrics.RunResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 4096)
			n := runtime.Stack(buf, false)
			s.cPanics.Inc()
			s.logf("job %s: contained panic: %v\n%s", j.ID, r, buf[:n])
			err = fmt.Errorf("%w: job runner: %v", engine.ErrPanic, r)
		}
	}()
	return s.run(ctx, worker, j)
}

// retryable classifies failures worth a fresh attempt:
// transient injected faults, divergence, contained panics, and exhausted
// in-process retry budgets (a new attempt restarts that budget). Crashes
// (simulated process kills), cancellation/deadline and configuration
// errors are job-fatal.
func (s *Server) retryable(err error) bool {
	if errors.Is(err, resilience.ErrInjectedCrash) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, resilience.ErrInjected) ||
		errors.Is(err, resilience.ErrDiverged) ||
		errors.Is(err, resilience.ErrRetriesExhausted) ||
		errors.Is(err, engine.ErrPanic)
}

// suiteRunner is the production RunFunc. It keeps one core.Suite per
// (scale, seed), shared by every worker, and runs each job on a copy of
// it that carries the job's tracer, fault plan and resilience policy, so
// nothing is ever set on the shared value.
type suiteRunner struct {
	server *Server
	mu     sync.Mutex
	suites map[string]*core.Suite // by "scale/seed"
}

// maxSuites bounds the suite cache; beyond it the whole cache is dropped
// (suites pin datasets and trained models, and a daemon hammered with
// distinct seeds must not accumulate them).
const maxSuites = 4

// suite returns the shared suite for the job's (scale, seed), building
// it on first use.
func (r *suiteRunner) suite(js JobSpec) (*core.Suite, error) {
	key := fmt.Sprintf("%s/%d", js.Scale, js.Seed)
	r.mu.Lock()
	defer r.mu.Unlock()
	if suite := r.suites[key]; suite != nil {
		return suite, nil
	}
	scale, err := core.ScaleByName(js.Scale)
	if err != nil {
		return nil, err
	}
	suite, err := core.NewSuite(scale, js.Seed)
	if err != nil {
		return nil, err
	}
	if r.suites == nil || len(r.suites) >= maxSuites {
		r.suites = make(map[string]*core.Suite)
	}
	r.suites[key] = suite
	return suite, nil
}

// run executes one attempt on a copy of the job's shared suite.
func (r *suiteRunner) run(ctx context.Context, _ int, j *Job) (*metrics.RunResult, error) {
	shared, err := r.suite(j.Spec)
	if err != nil {
		return nil, err
	}
	suite := *shared
	suite.Obs = j.tracer
	suite.Progress = func(format string, args ...any) {
		j.tracer.Emit("job.progress", map[string]any{"id": j.ID, "line": fmt.Sprintf(format, args...)})
	}
	var row *metrics.RunResult
	if j.Spec.Mode == "infer" {
		row, err = r.runInfer(ctx, &suite, j)
	} else {
		row, err = r.runTrain(ctx, &suite, j)
	}
	if err != nil {
		return nil, err
	}
	if r.server.underMemoryPressure() {
		// Degrade before the monitor watermark starts shedding: dropping
		// the cached suites trades warm-cache latency for headroom. Jobs
		// still running keep their copies until they finish.
		r.mu.Lock()
		r.suites = nil
		r.mu.Unlock()
		runtime.GC()
		r.server.cCacheDrops.Inc()
	}
	return row, nil
}

// runTrain executes one training attempt. Each job measures fresh:
// RunFresh retrains the cell instead of returning a cached model (a cache
// hit would return stale metrics and skip the job's fault plan), while
// the datasets stay warm.
func (r *suiteRunner) runTrain(ctx context.Context, suite *core.Suite, j *Job) (*metrics.RunResult, error) {
	spec, err := j.Spec.RunSpec()
	if err != nil {
		return nil, err
	}
	maxRetries := 2
	if j.Spec.MaxRetries != nil {
		maxRetries = *j.Spec.MaxRetries
	}
	suite.Resilience = resilience.Policy{MaxRetries: maxRetries}
	suite.Faults, _ = resilience.ParsePlan(j.Spec.Faults) // validated at admission
	row, err := suite.RunFresh(ctx, spec)
	if err != nil {
		return nil, err
	}
	return &row, nil
}

// runInfer executes one inference attempt: a single-column, single-batch
// sweep. Unlike training jobs, it serves the suite's cached model — cache
// warmth is the point of a serving measurement, so repeated inference
// jobs of one (scale, seed) pay training once and then measure pure
// serving latency. The event stream terminates with an "infer.summary"
// event carrying the latency distribution and how many jobs co-ran.
func (r *suiteRunner) runInfer(ctx context.Context, suite *core.Suite, j *Job) (*metrics.RunResult, error) {
	cfg, err := j.Spec.InferConfig()
	if err != nil {
		return nil, err
	}
	rep, err := suite.InferSweep(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if len(rep.Cells) != 1 {
		return nil, fmt.Errorf("inference sweep returned %d cells, want 1", len(rep.Cells))
	}
	cell := rep.Cells[0]
	dev := j.Spec.Device
	if dev == "" {
		dev = "gpu"
	}
	j.tracer.Emit("infer.summary", map[string]any{
		"id": j.ID, "framework": cell.Framework, "network": cell.Network,
		"dataset": cell.Dataset, "batch": cell.Batch, "requests": cell.Requests,
		"latency_p50_ms": cell.LatencyP50MS, "latency_p95_ms": cell.LatencyP95MS,
		"latency_p99_ms": cell.LatencyP99MS, "throughput_sps": cell.ThroughputSPS,
		"accuracy_pct": cell.AccuracyPct, "co_running": r.server.coRunning(j),
	})
	// Shape the serving measurement into the job-result row: Test carries
	// the timed serving wall clock, Settings names the served model plan.
	return &metrics.RunResult{
		Framework:   cell.Framework,
		Settings:    "infer " + cell.Network + " b" + fmt.Sprint(cell.Batch),
		Dataset:     cell.Dataset,
		Device:      dev,
		Test:        metrics.TimeRecord{WallSeconds: cell.WallSeconds},
		AccuracyPct: cell.AccuracyPct,
		Converged:   true,
	}, nil
}
