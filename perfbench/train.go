package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/framework"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// train-cifar: a closed training loop of the Caffe-style layerwise
// executor on synthetic CIFAR-10 at the paper's Caffe batch size, in the
// order core's training loop uses (Batches.Next, ApplyPreprocessing,
// TrainBatch, Optimizer.Step). One op is one iteration.
const (
	trainSamples = 1000 // 10 batches per epoch
	trainBatch   = 100
	trainWarmup  = 2
	// trainChecked iterations — the warm-up and the first timed ones —
	// are replayed under the graph executor from the same initial
	// weights, and their losses must agree.
	trainChecked = trainWarmup + 2
)

type trainSession struct {
	tr      *obs.Tracer
	net     *nn.Network
	exec    engine.Executor
	traced  engine.Executor
	opt     optim.Optimizer
	batches *data.Batches
	prep    framework.Preprocessing
	iter    int
	refLoss []float64
	// lastLoss is the loss of the latest iteration.
	lastLoss float64
}

func setupTrain(ctx context.Context, seed uint64, tr *obs.Tracer) (session, setupInfo, error) {
	var info setupInfo
	start := time.Now()
	trainSet, _, err := data.SynthCIFAR10(data.SynthConfig{Train: trainSamples, Test: 1, Seed: seed, Difficulty: 1.25})
	if err != nil {
		return nil, info, err
	}
	info.synthS = time.Since(start).Seconds()

	defaults, err := framework.Defaults(framework.Caffe, framework.CIFAR10)
	if err != nil {
		return nil, info, err
	}
	rng := tensor.NewRNG(seed ^ 0xc1fa)
	net, err := buildCaffeCIFAR(rng.Split())
	if err != nil {
		return nil, info, err
	}
	if err := nn.InitNetwork(net, defaults.Init, rng.Split()); err != nil {
		return nil, info, err
	}
	batchSeed := rng.Uint64()
	prep := framework.PreprocessingFor(framework.Caffe, framework.CIFAR10)

	// The reference run: a copy of the initial weights trained by the
	// TensorFlow-style graph executor on the same batch sequence.
	var snapshot bytes.Buffer
	if err := nn.SaveParams(&snapshot, net); err != nil {
		return nil, info, err
	}
	refNet, err := buildCaffeCIFAR(tensor.NewRNG(1))
	if err != nil {
		return nil, info, err
	}
	if err := nn.LoadParams(&snapshot, refNet); err != nil {
		return nil, info, err
	}
	ref, err := newTrainSession(refNet, framework.TensorFlow, defaults, trainSet, batchSeed, prep, nil)
	if err != nil {
		return nil, info, err
	}
	for i := 0; i < trainChecked; i++ {
		if err := ref.op(ctx, 0, false); err != nil {
			return nil, info, fmt.Errorf("reference iteration %d: %w", i, err)
		}
		ref.refLoss = append(ref.refLoss, ref.lastLoss)
	}

	s, err := newTrainSession(net, framework.Caffe, defaults, trainSet, batchSeed, prep, tr)
	if err != nil {
		return nil, info, err
	}
	s.refLoss = ref.refLoss
	return s, info, warmupOps(ctx, s, trainWarmup, &info)
}

// buildCaffeCIFAR builds Caffe's cifar10_quick network.
func buildCaffeCIFAR(rng *tensor.RNG) (*nn.Network, error) {
	in, err := framework.InputFor(framework.CIFAR10)
	if err != nil {
		return nil, err
	}
	return framework.BuildNetwork(framework.Caffe, framework.CIFAR10, in, framework.NetworkOptions{
		Device: device.GPU, DropoutRate: 0, RNG: rng,
	})
}

func newTrainSession(net *nn.Network, style framework.ID, d framework.TrainingDefaults, ds *data.Dataset,
	batchSeed uint64, prep framework.Preprocessing, tr *obs.Tracer) (*trainSession, error) {
	exec, err := framework.NewExecutor(style, net, d.BatchSize)
	if err != nil {
		return nil, err
	}
	var traced engine.Executor
	if tr != nil {
		if traced, err = framework.NewTracedExecutor(style, net, d.BatchSize, tr); err != nil {
			return nil, err
		}
	}
	opt, err := d.NewOptimizer(net.Params(), d.MaxIters)
	if err != nil {
		return nil, err
	}
	batches, err := data.NewBatches(ds, d.BatchSize, tensor.NewRNG(batchSeed))
	if err != nil {
		return nil, err
	}
	return &trainSession{tr: tr, net: net, exec: exec, traced: traced, opt: opt, batches: batches, prep: prep}, nil
}

func (s *trainSession) kind() string        { return "train.iteration" }
func (s *trainSession) unitsPerOp() float64 { return trainBatch }
func (s *trainSession) close() error        { return nil }

func (s *trainSession) describe() string {
	return fmt.Sprintf("final loss %.6f after %d iterations", s.lastLoss, s.iter)
}

func (s *trainSession) op(ctx context.Context, _ int, traced bool) error {
	it := s.iter
	s.iter++
	var res nn.LossResult
	var err error
	if traced {
		res, err = s.tracedIteration(ctx)
	} else {
		res, err = s.iteration(ctx)
	}
	if err != nil {
		return fmt.Errorf("iteration %d: %w", it, err)
	}
	s.lastLoss = res.Loss
	if math.IsNaN(res.Loss) || math.IsInf(res.Loss, 0) {
		return fmt.Errorf("iteration %d: loss %v is not finite", it, res.Loss)
	}
	if it < len(s.refLoss) {
		if want := s.refLoss[it]; math.Abs(res.Loss-want) > 1e-9*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("iteration %d: loss %.12g, graph executor reference %.12g", it, res.Loss, want)
		}
	}
	return nil
}

func (s *trainSession) iteration(ctx context.Context) (nn.LossResult, error) {
	x, labels, err := s.batches.Next()
	if err != nil {
		return nn.LossResult{}, err
	}
	framework.ApplyPreprocessing(s.prep, x)
	res, err := s.exec.TrainBatch(ctx, x, labels)
	if err != nil {
		return res, err
	}
	return res, s.opt.Step()
}

// tracedIteration is iteration with a span around each layer call and
// the profiling executor, which adds per-op spans.
func (s *trainSession) tracedIteration(ctx context.Context) (nn.LossResult, error) {
	root := s.tr.Span(rootSpan, "bench")
	defer root.End()
	sp := s.tr.Span(spanNext, "data")
	x, labels, err := s.batches.Next()
	sp.End()
	if err != nil {
		return nn.LossResult{}, err
	}
	sp = s.tr.Span(spanPreprocess, "framework")
	framework.ApplyPreprocessing(s.prep, x)
	sp.End()
	sp = s.tr.Span(spanTrainBatch, "engine")
	res, err := s.traced.TrainBatch(ctx, x, labels)
	sp.End()
	if err != nil {
		return res, err
	}
	sp = s.tr.Span(spanStep, "optim")
	err = s.opt.Step()
	sp.End()
	return res, err
}

func (s *trainSession) layers(_ context.Context, t *phaseResult) (map[string]float64, error) {
	st, err := collectSpans(s.tr, s.net)
	if err != nil {
		return nil, err
	}
	// A training iteration costs about three forward passes: forward,
	// plus backward with respect to activations and to weights.
	flops := 3 * float64(s.net.FLOPsPerSample()) * trainBatch
	return engineLayers(st, t.attempted, flops, s.exec.Stats().TrainDispatches), nil
}
