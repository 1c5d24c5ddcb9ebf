package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// serve-b1: an in-process daemon with serveWorkers workers and a journal,
// served on a loopback listener. Each of serveClients closed-loop clients
// submits a batch-1 Caffe/MNIST inference job and reads its event stream
// up to the terminal line. One op is one job.
const (
	serveWorkers = 2
	serveClients = 2
	// serveWarmRounds caps warm-up: each round runs one job per client,
	// and warm-up stops early once every worker has finished a job.
	serveWarmRounds = 3
)

type serveSession struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	dir    string
	spec   []byte

	mu sync.Mutex
	// refAcc is the accuracy of the first warm-up job; every later job
	// must match it.
	refAcc  float64
	haveRef bool
	shards  map[int]bool
	jobs    []tracedJob // the traced phase's jobs
	rejects atomic.Int64
}

// tracedJob is one job of the traced phase, as the client saw it.
type tracedJob struct {
	id       string
	submitMS float64
	e2eMS    float64
}

// jobOutcome is what a job's event stream reported.
type jobOutcome struct {
	state    string
	shard    int
	accuracy float64
	hasAcc   bool
}

func setupServe(ctx context.Context, seed uint64, _ *obs.Tracer) (session, setupInfo, error) {
	var info setupInfo
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, info, err
	}
	dir, err := os.MkdirTemp(".bench_build", "serve-")
	if err != nil {
		return nil, info, err
	}
	spec, err := json.Marshal(map[string]any{
		"framework": "caffe", "dataset": "mnist", "mode": "infer", "batch": 1, "seed": seed + 1,
	})
	if err != nil {
		return nil, info, err
	}
	srv, err := server.New(server.Config{Workers: serveWorkers, JournalPath: filepath.Join(dir, "journal.jsonl")})
	if err != nil {
		os.RemoveAll(dir)
		return nil, info, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(ctx)
		os.RemoveAll(dir)
		return nil, info, err
	}
	s := &serveSession{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		dir:    dir,
		spec:   spec,
		shards: map[int]bool{},
	}
	go func() { s.served <- s.hs.Serve(ln) }()

	var warm []string
	for round := 0; round < serveWarmRounds && len(s.shards) < serveWorkers; round++ {
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				id, err := s.job(ctx, nil)
				s.mu.Lock()
				defer s.mu.Unlock()
				info.warmAttempted++
				if err != nil {
					info.warmFailed++
					fmt.Fprintf(os.Stderr, "perfbench: failed warm-up job: %v\n", err)
				}
				if id != "" {
					warm = append(warm, id)
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			s.close()
			return nil, info, err
		}
	}
	// The first job on each worker synthesizes the data and trains the
	// model; the slowest such job gives the set-up's share of each.
	for _, id := range warm {
		prof, err := s.profile(ctx, id)
		if err != nil {
			s.close()
			return nil, info, err
		}
		var synthMS float64
		for name, ms := range prof {
			if strings.HasPrefix(name, "data.generate.") {
				synthMS += ms
			}
		}
		info.synthS = max(info.synthS, synthMS/1e3)
		info.trainS = max(info.trainS, prof["suite.run"]/1e3)
	}
	return s, info, nil
}

func (s *serveSession) kind() string        { return "serve.infer_job_b1" }
func (s *serveSession) unitsPerOp() float64 { return 1 }
func (s *serveSession) describe() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("warm-up reached worker shards %v of %d; job accuracy %.4f%%", keys(s.shards), serveWorkers, s.refAcc)
}

func (s *serveSession) op(ctx context.Context, _ int, traced bool) error {
	var rec *tracedJob
	if traced {
		rec = &tracedJob{}
	}
	start := time.Now()
	_, err := s.job(ctx, rec)
	if err != nil || rec == nil {
		return err
	}
	rec.e2eMS = float64(time.Since(start).Nanoseconds()) / 1e6
	s.mu.Lock()
	s.jobs = append(s.jobs, *rec)
	s.mu.Unlock()
	return nil
}

// job submits one job and follows its event stream to the terminal
// line, checking the outcome. rec, when non-nil, receives the job's ID
// and submit round trip. The job's ID is returned whenever it was
// accepted.
func (s *serveSession) job(ctx context.Context, rec *tracedJob) (string, error) {
	start := time.Now()
	id, err := s.submit(ctx)
	if err != nil {
		return "", err
	}
	if rec != nil {
		rec.id = id
		rec.submitMS = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	out, err := s.follow(ctx, id)
	if err != nil {
		return id, err
	}
	if out.state != "completed" {
		return id, fmt.Errorf("job %s ended %q", id, out.state)
	}
	if !out.hasAcc {
		return id, fmt.Errorf("job %s reported no accuracy", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if out.shard >= 0 {
		s.shards[out.shard] = true
	}
	if !s.haveRef {
		s.refAcc, s.haveRef = out.accuracy, true
	}
	if out.accuracy != s.refAcc {
		return id, fmt.Errorf("job %s accuracy %v%%, first warm-up job %v%%", id, out.accuracy, s.refAcc)
	}
	return id, nil
}

func (s *serveSession) submit(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/jobs", bytes.NewReader(s.spec))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var reply struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return "", fmt.Errorf("submit reply: %w", err)
	}
	switch {
	case resp.StatusCode == http.StatusAccepted && reply.ID != "":
		return reply.ID, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		s.rejects.Add(1)
	}
	return "", fmt.Errorf("submit: HTTP %d %s: %s", resp.StatusCode, reply.Status, reply.Reason)
}

// follow reads the job's event stream up to its terminal line.
func (s *serveSession) follow(ctx context.Context, id string) (jobOutcome, error) {
	out := jobOutcome{shard: -1}
	resp, err := s.get(ctx, "/jobs/"+id+"/events")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Type     string   `json:"type"`
			State    string   `json:"state"`
			Shard    *int     `json:"shard"`
			Accuracy *float64 `json:"accuracy_pct"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return out, fmt.Errorf("job %s event: %w", id, err)
		}
		switch ev.Type {
		case "job.start":
			if ev.Shard != nil {
				out.shard = *ev.Shard
			}
		case "infer.summary":
			if ev.Accuracy != nil {
				out.accuracy, out.hasAcc = *ev.Accuracy, true
			}
		case "job.done":
			out.state = ev.State
			// The stream ends right after the terminal line; reading it
			// to the end keeps the connection reusable.
			_, err := io.Copy(io.Discard, resp.Body)
			return out, err
		}
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("job %s events: %w", id, err)
	}
	return out, fmt.Errorf("job %s: event stream ended without a terminal line", id)
}

func (s *serveSession) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return resp, nil
}

// profile returns the job's cumulative time by span name, in ms, from
// /jobs/{id}/profile.
func (s *serveSession) profile(ctx context.Context, id string) (map[string]float64, error) {
	resp, err := s.get(ctx, "/jobs/"+id+"/profile?format=csv")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rows, err := csv.NewReader(resp.Body).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("job %s profile: %w", id, err)
	}
	cum := map[string]float64{}
	for i, row := range rows {
		if i == 0 || len(row) < 5 {
			continue
		}
		ns, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			return nil, fmt.Errorf("job %s profile row %q: %w", id, row[0], err)
		}
		cum[row[0]] += ns / 1e6
	}
	return cum, nil
}

// jobTrace returns the job's journal fsync time in ms and its executor
// dispatch count, from /jobs/{id}/trace.
func (s *serveSession) jobTrace(ctx context.Context, id string) (fsyncMS, dispatches float64, err error) {
	resp, err := s.get(ctx, "/jobs/"+id+"/trace")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		OtherData struct {
			Counters map[string]float64 `json:"counters"`
		} `json:"otherData"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, 0, fmt.Errorf("job %s trace: %w", id, err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name == server.SpanJournalSync {
			fsyncMS += ev.Dur / 1e3
		}
	}
	for name, v := range doc.OtherData.Counters {
		if strings.HasPrefix(name, "engine.") {
			dispatches += v
		}
	}
	return fsyncMS, dispatches, nil
}

// jobTimes returns the server-attributed queue wait and execution time of
// a finished job, in ms, from the GET /jobs/{id} headers.
func (s *serveSession) jobTimes(ctx context.Context, id string) (queueMS, execMS float64, err error) {
	resp, err := s.get(ctx, "/jobs/"+id)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, 0, err
	}
	q, err := strconv.ParseFloat(resp.Header.Get("X-DLBench-Queue-Seconds"), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("job %s queue header: %w", id, err)
	}
	e, err := strconv.ParseFloat(resp.Header.Get("X-DLBench-Exec-Seconds"), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("job %s exec header: %w", id, err)
	}
	return q * 1e3, e * 1e3, nil
}

// layers reads back every job of the traced phase after the phase ended,
// so the reads add no load while jobs are timed.
func (s *serveSession) layers(ctx context.Context, t *phaseResult) (map[string]float64, error) {
	var submit, fsync, queue, exec, gap, sweep, predict, disp []float64
	var execSum float64
	for _, j := range s.jobs {
		q, e, err := s.jobTimes(ctx, j.id)
		if err != nil {
			return nil, err
		}
		f, d, err := s.jobTrace(ctx, j.id)
		if err != nil {
			return nil, err
		}
		prof, err := s.profile(ctx, j.id)
		if err != nil {
			return nil, err
		}
		submit = append(submit, j.submitMS)
		queue = append(queue, q)
		exec = append(exec, e)
		execSum += e
		gap = append(gap, j.e2eMS-q-e)
		fsync = append(fsync, f)
		disp = append(disp, d)
		sweep = append(sweep, prof["infer.sweep"])
		predict = append(predict, prof["layerwise.predict"])
	}
	if len(s.jobs) == 0 {
		return nil, errors.New("the traced phase completed no job")
	}
	return map[string]float64{
		"server.submit_ms":         median(submit),
		"server.journal_fsync_ms":  median(fsync),
		"server.queue_wait_ms":     median(queue),
		"server.exec_ms":           median(exec),
		"server.attrib_gap_ms":     median(gap),
		"server.worker_busy_share": execSum / (serveWorkers * t.wall.Seconds() * 1e3),
		"server.rejected":          float64(s.rejects.Load()),
		"core.infer_job_ms":        median(sweep),
		// A job's Predict calls: its test-set evaluation batches and its
		// timed batch-1 requests, all on the layerwise executor.
		"engine.predict_ms": median(predict),
		"engine.dispatches": median(disp),
	}, nil
}

func (s *serveSession) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if _, serr := s.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

func keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
