package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/profile"
)

// Span names the benchmark opens around the calls it makes into each
// layer. rootSpan encloses one traced op; only spans under it count, so
// executor construction and untraced work never reach the layer table.
const (
	rootSpan       = "bench.op"
	spanNext       = "data.next"
	spanPreprocess = "framework.preprocess"
	spanTrainBatch = "engine.train_batch"
	spanStep       = "optim.step"
)

// spanTimes is the traced phase's time by span, in milliseconds.
type spanTimes struct {
	// self and cum are keyed by span name; ops by layer kind and phase
	// ("conv_fwd", "pool_bwd", ...).
	self, cum, ops map[string]float64
	opFwd, opBwd   float64
	// phaseSelf is executor phase time not covered by op spans.
	phaseSelf float64
}

// collectSpans attributes the tracer's spans under rootSpan. It reuses
// the profile package's folded stacks, whose paths keep the parent of
// each op span: an op under "<style>.backward" is a backward pass, one
// under "<style>.forward" a forward pass.
func collectSpans(tr *obs.Tracer, net *nn.Network) (*spanTimes, error) {
	var buf bytes.Buffer
	if err := profile.Build(tr.Spans()).WriteFolded(&buf); err != nil {
		return nil, err
	}
	kinds := layerKinds(net)
	st := &spanTimes{self: map[string]float64{}, cum: map[string]float64{}, ops: map[string]float64{}}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		path, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			return nil, fmt.Errorf("malformed folded stack %q", sc.Text())
		}
		us, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("folded stack %q: %w", path, err)
		}
		names := strings.Split(path, ";")
		if names[0] != rootSpan {
			continue
		}
		ms := us / 1e3
		last := names[len(names)-1]
		st.self[last] += ms
		seen := map[string]bool{}
		for _, n := range names {
			if !seen[n] {
				st.cum[n] += ms
				seen[n] = true
			}
		}
		if len(names) < 2 {
			continue
		}
		parent := names[len(names)-2]
		if _, layer, isOp := strings.Cut(last, ".op."); isOp {
			kind := kinds[layer]
			if kind == "" {
				kind = "other"
			}
			if strings.HasSuffix(parent, ".backward") {
				st.ops[kind+"_bwd"] += ms
				st.opBwd += ms
			} else {
				st.ops[kind+"_fwd"] += ms
				st.opFwd += ms
			}
			continue
		}
		if strings.HasSuffix(last, ".forward") || strings.HasSuffix(last, ".backward") {
			st.phaseSelf += ms
		}
	}
	return st, sc.Err()
}

// layerKinds maps each layer name of net to the kind its op time is
// grouped under.
func layerKinds(net *nn.Network) map[string]string {
	kinds := map[string]string{}
	for _, l := range net.Layers() {
		switch l.(type) {
		case *nn.Conv2D:
			kinds[l.Name()] = "conv"
		case *nn.Dense:
			kinds[l.Name()] = "dense"
		case *nn.Pool2D:
			kinds[l.Name()] = "pool"
		case *nn.Activation:
			kinds[l.Name()] = "act"
		case *nn.LRN:
			kinds[l.Name()] = "norm"
		default:
			kinds[l.Name()] = "other"
		}
	}
	return kinds
}

// engineLayers turns the span times of n traced ops into the data,
// framework, optim, engine, nn and tensor layer metrics. flopsPerOp is
// the computed (not counted) arithmetic of one op; dispatches the exact
// executor dispatches per op from Executor.Stats.
func engineLayers(st *spanTimes, n int, flopsPerOp float64, dispatches int) map[string]float64 {
	per := func(ms float64) float64 { return ms / float64(n) }
	v := map[string]float64{
		"data.next_ms":            per(st.self[spanNext]),
		"framework.preprocess_ms": per(st.cum[spanPreprocess]),
		"optim.step_ms":           per(st.cum[spanStep]),
		"engine.dispatches":       float64(dispatches),
		"nn.conv_fwd_ms":          per(st.ops["conv_fwd"]),
		"nn.conv_bwd_ms":          per(st.ops["conv_bwd"]),
		"nn.dense_fwd_ms":         per(st.ops["dense_fwd"]),
		"nn.dense_bwd_ms":         per(st.ops["dense_bwd"]),
		"nn.pool_ms":              per(st.ops["pool_fwd"] + st.ops["pool_bwd"]),
		"nn.act_ms":               per(st.ops["act_fwd"] + st.ops["act_bwd"]),
		"nn.norm_ms":              per(st.ops["norm_fwd"] + st.ops["norm_bwd"]),
		// TrainBatch computes the loss and its gradient between the
		// forward and backward phases, outside any phase span.
		"nn.loss_ms": per(st.self[spanTrainBatch]),
		// The executor's own time: inside its phase spans but outside op
		// spans.
		"engine.dispatch_overhead_ms": per(st.phaseSelf),
	}
	var engineMS float64
	for name, ms := range st.cum {
		switch {
		case strings.HasSuffix(name, ".forward"):
			v["engine.forward_ms"] += per(ms)
			engineMS += ms
		case strings.HasSuffix(name, ".backward"):
			v["engine.backward_ms"] += per(ms)
			engineMS += ms
		}
	}
	if st.opFwd > 0 && st.opBwd > 0 {
		v["nn.bwd_fwd_ratio"] = st.opBwd / st.opFwd
	}
	if engineMS > 0 {
		v["tensor.gflops"] = flopsPerOp * float64(n) / (engineMS / 1e3) / 1e9
	}
	return v
}
