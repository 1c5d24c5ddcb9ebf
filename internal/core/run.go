package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/framework"
	"repro/internal/metrics"
	"repro/internal/nn"
)

// evalBatchSize is the batch size used for test-set evaluation (the paper
// frameworks all evaluate in large batches regardless of training batch).
const evalBatchSize = 100

// Run executes (or retrieves from cache) the training computation for spec
// and assembles its RunResult, with cost-model times for spec.Device at
// paper scale. It is RunContext under a background context.
func (s *Suite) Run(spec RunSpec) (metrics.RunResult, error) {
	return s.RunContext(context.Background(), spec)
}

// RunContext is Run under a caller-controlled context: cancellation
// (timeouts, SIGINT) is observed at iteration granularity during training
// and at batch granularity during evaluation, so a cancelled sweep
// returns within one executor phase.
func (s *Suite) RunContext(ctx context.Context, spec RunSpec) (metrics.RunResult, error) {
	tm, err := s.model(ctx, spec)
	if err != nil {
		return metrics.RunResult{}, err
	}
	return s.assemble(spec, tm)
}

// TrainedNetwork returns the trained network for spec (used by the
// adversarial experiments, which attack trained models).
func (s *Suite) TrainedNetwork(spec RunSpec) (*nn.Network, error) {
	return s.TrainedNetworkContext(context.Background(), spec)
}

// TrainedNetworkContext is TrainedNetwork under a caller context.
func (s *Suite) TrainedNetworkContext(ctx context.Context, spec RunSpec) (*nn.Network, error) {
	tm, err := s.model(ctx, spec)
	if err != nil {
		return nil, err
	}
	return tm.net, nil
}

// assemble builds the result view of a cached computation for a device.
func (s *Suite) assemble(spec RunSpec, tm *trainedModel) (metrics.RunResult, error) {
	d, err := framework.Defaults(spec.SettingsFW, spec.SettingsDS)
	if err != nil {
		return metrics.RunResult{}, err
	}
	cm, err := framework.CostModelFor(spec.Framework, spec.Device)
	if err != nil {
		return metrics.RunResult{}, err
	}
	trainModel := cm.TrainSeconds(tm.flopsPerSamp, d.MaxIters, d.BatchSize, tm.trainDisp)
	testModel := cm.TestSeconds(tm.flopsPerSamp, paperTestSize(spec.Data), evalBatchSize, tm.inferDisp)
	return metrics.RunResult{
		Framework:   spec.Framework.Short(),
		Settings:    spec.settingsLabel(),
		Dataset:     spec.Data.String(),
		Device:      spec.Device.String(),
		Train:       metrics.TimeRecord{ModelSeconds: trainModel, WallSeconds: tm.trainWall},
		Test:        metrics.TimeRecord{ModelSeconds: testModel, WallSeconds: tm.testWall},
		AccuracyPct: tm.accuracyPct,
		FinalLoss:   tm.finalLoss,
		Converged:   tm.converged,
		LossHistory: tm.lossHistory,
		Epochs:      tm.epochs,
		Telemetry:   tm.telemetry,
	}, nil
}

// keyFor builds the model-cache key identifying spec's training
// computation.
func keyFor(spec RunSpec) modelKey {
	return modelKey{
		fw:         spec.Framework,
		settingsFW: spec.SettingsFW,
		settingsDS: spec.SettingsDS,
		data:       spec.Data,
		variant:    variantFor(spec),
	}
}

// RunFresh trains spec's cell anew and assembles its RunResult. It
// neither reads nor fills the model cache, so every call executes the
// training — and its fault plan — under this suite's own settings,
// while the datasets stay shared. The serve daemon runs training jobs
// through it: a benchmark service measures each submitted job fresh.
func (s *Suite) RunFresh(ctx context.Context, spec RunSpec) (metrics.RunResult, error) {
	tm, err := s.trainCell(ctx, spec)
	if err != nil {
		return metrics.RunResult{}, err
	}
	return s.assemble(spec, tm)
}

// model returns the cached training computation for spec, training it on
// first use.
func (s *Suite) model(ctx context.Context, spec RunSpec) (*trainedModel, error) {
	return s.cached(ctx, keyFor(spec), func() (*trainedModel, error) { return s.trainCell(ctx, spec) })
}

// trainCell runs spec's training computation, naming the cell in its
// error.
func (s *Suite) trainCell(ctx context.Context, spec RunSpec) (*trainedModel, error) {
	tm, err := s.train(ctx, spec, keyFor(spec))
	if err != nil {
		return nil, fmt.Errorf("core: run %s on %v under %v: %w", spec.settingsLabel(), spec.Data, spec.Framework, err)
	}
	return tm, nil
}

// flight is one training in progress; done closes when it ends, after
// tm and err are set.
type flight struct {
	done chan struct{}
	tm   *trainedModel
	err  error
}

// errFlightAborted is the outcome of a training that panicked.
var errFlightAborted = errors.New("core: training aborted")

// cached returns the model cached under key, running train to fill it on
// a miss. Copies of one suite share the cache, so concurrent callers of
// one key train it once: the first runs train while the rest wait for
// its outcome. A waiter whose training failed trains the key itself,
// under its own context and settings.
func (s *Suite) cached(ctx context.Context, key modelKey, train func() (*trainedModel, error)) (*trainedModel, error) {
	for {
		s.mu.Lock()
		if tm, ok := s.models[key]; ok {
			s.mu.Unlock()
			return tm, nil
		}
		f, busy := s.flights[key]
		if !busy {
			f = &flight{done: make(chan struct{}), err: errFlightAborted}
			s.flights[key] = f
			s.mu.Unlock()
			// The flight also ends when train panics, so its waiters
			// retry instead of hanging.
			defer func() {
				s.mu.Lock()
				delete(s.flights, key)
				if f.err == nil {
					s.models[key] = f.tm
				}
				s.mu.Unlock()
				close(f.done)
			}()
			f.tm, f.err = train()
			return f.tm, f.err
		}
		s.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.err == nil {
			return f.tm, nil
		}
	}
}
