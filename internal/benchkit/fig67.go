package benchkit

import (
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/baselines/rlliblike"
	"rlgraph/internal/components/optimizers"
	"rlgraph/internal/distexec"
	"rlgraph/internal/envs"
	"rlgraph/internal/execution"
)

// WorkerKind selects the execution plan under test.
type WorkerKind string

const (
	// KindRLgraph is the batched RLgraph worker.
	KindRLgraph WorkerKind = "RLgraph"
	// KindRLlib is the RLlib-style incremental policy evaluator.
	KindRLlib WorkerKind = "RLlib"
)

// apexEnv builds the Pong environment for distributed experiments
// (feature mode keeps per-step cost realistic for scaled-down clusters; the
// slightly weakened opponent makes the scaled episodes learnable within
// laptop time budgets, see EXPERIMENTS.md).
func apexEnv(seed int64, points int) envs.Env {
	return envs.NewPongSim(envs.PongConfig{
		Obs: envs.PongFeatures, FrameSkip: 4, PointsToWin: points,
		OpponentSkill: 0.55, Seed: seed,
	})
}

// learnableDQNConfig is the hyper-parameter set verified to learn scaled
// feature-Pong (cmd-level calibration run: mean reward -3 → +2.3 within 20k
// steps); used by the learning-curve experiments (Fig. 7b, Fig. 8).
func learnableDQNConfig(seed int64) agents.DQNConfig {
	cfg := DuelingDQNConfig("static", featureNet(), seed)
	cfg.Optimizer = optimizers.Config{Type: "adam", LearningRate: 1e-3}
	cfg.Exploration = agents.ExplorationConfig{Initial: 1, Final: 0.02, DecaySteps: 8000}
	cfg.BatchSize = 64
	cfg.TargetSyncEvery = 200
	cfg.Memory.Capacity = 50000
	return cfg
}

// apexWorkerFactory builds a worker of the requested kind with its own agent
// and 4 vectorized envs (the paper's per-worker env count). learnable
// selects the calibrated learning hyper-parameters (curve runs) over the
// default throughput configuration.
func apexWorkerFactory(kind WorkerKind, points, envsPerWorker int, learnable bool) func(i int) (distexec.SampleWorker, error) {
	return func(i int) (distexec.SampleWorker, error) {
		env := apexEnv(int64(1000+i), points)
		cfg := DuelingDQNConfig("static", featureNet(), int64(i))
		if learnable {
			cfg = learnableDQNConfig(int64(i))
		}
		agent, err := BuildAgent(cfg, env)
		if err != nil {
			return nil, err
		}
		// Per-worker epsilon ladder as in Ape-X.
		agent.Exploration().SetTimestep(i * 1000)
		es := make([]envs.Env, envsPerWorker)
		for k := range es {
			es[k] = apexEnv(int64(1000+i*10+k), points)
		}
		vec := envs.NewVectorEnv(es...)
		if kind == KindRLlib {
			return rlliblike.NewWorker(agent, vec, 3, 0.99, true, 4), nil
		}
		return execution.NewWorker(agent, vec, execution.WorkerConfig{
			NStep: 3, Gamma: 0.99, ComputePriorities: true, FramesPerStep: 4,
		}), nil
	}
}

// apexLearner builds the central learner agent.
func apexLearner(points int, learnable bool) (*agents.DQN, envs.Env, error) {
	env := apexEnv(999, points)
	cfg := DuelingDQNConfig("static", featureNet(), 999)
	if learnable {
		cfg = learnableDQNConfig(999)
	}
	agent, err := BuildAgent(cfg, env)
	if err != nil {
		return nil, nil, err
	}
	return agent, env, nil
}

// Fig6Result is one distributed-throughput measurement.
type Fig6Result struct {
	Kind    WorkerKind
	Workers int
	FPS     float64
	Updates int
}

// Fig6 measures Ape-X sample throughput versus worker count for both
// execution plans (paper Fig. 6; RLgraph beat RLlib by 185% at 16 workers
// shrinking to 60% at 256).
func Fig6(workers []int, duration time.Duration, points int) ([]Fig6Result, error) {
	var out []Fig6Result
	// Worker count outer, implementation inner: adjacent runs compare the
	// two plans under the same machine conditions.
	for _, n := range workers {
		for _, kind := range []WorkerKind{KindRLlib, KindRLgraph} {
			learner, env, err := apexLearner(points, false)
			if err != nil {
				return nil, err
			}
			cfg := distexec.ApexConfig{
				NumWorkers:      n,
				TaskSize:        50,
				NumReplayShards: 4,
				ReplayCapacity:  20000,
				BatchSize:       64,
			}
			ex, err := distexec.NewApex(cfg, learner, env.StateSpace(),
				apexWorkerFactory(kind, points, 4, false))
			if err != nil {
				return nil, err
			}
			res, err := ex.Run(distexec.RunOptions{Duration: duration})
			if err != nil {
				return nil, err
			}
			out = append(out, Fig6Result{Kind: kind, Workers: n, FPS: res.FPS, Updates: res.Updates})
		}
	}
	return out, nil
}

// Fig7aResult is one single-worker task-throughput measurement.
type Fig7aResult struct {
	Kind     WorkerKind
	TaskSize int
	Envs     int
	FPS      float64
}

// Fig7a measures a single worker's throughput across task sizes and
// vectorized env counts (paper Fig. 7a; 10 warm-up tasks, mean of the
// measured tasks).
func Fig7a(taskSizes, envCounts []int, points int) ([]Fig7aResult, error) {
	const warmup, measured = 3, 10
	var out []Fig7aResult
	for _, kind := range []WorkerKind{KindRLlib, KindRLgraph} {
		for _, ne := range envCounts {
			for _, ts := range taskSizes {
				w, err := apexWorkerFactory(kind, points, ne, false)(0)
				if err != nil {
					return nil, err
				}
				for i := 0; i < warmup; i++ {
					if _, err := w.Sample(ts); err != nil {
						return nil, err
					}
				}
				start := time.Now()
				frames := 0
				for i := 0; i < measured; i++ {
					b, err := w.Sample(ts)
					if err != nil {
						return nil, err
					}
					frames += b.Frames
				}
				out = append(out, Fig7aResult{
					Kind: kind, TaskSize: ts, Envs: ne,
					FPS: float64(frames) / time.Since(start).Seconds(),
				})
			}
		}
	}
	return out, nil
}

// Fig7bResult is one learning-curve run.
type Fig7bResult struct {
	Kind     WorkerKind
	Timeline []distexec.RewardPoint
	// SolvedSec is the time the mean reward first reached the target
	// (negative when never reached within the budget).
	SolvedSec float64
}

// Fig7b runs Ape-X learning on Pong for both plans and reports reward-vs-time
// curves (paper Fig. 7b: both solve, RLgraph substantially earlier).
func Fig7b(workers, points int, target float64, maxTime time.Duration) ([]Fig7bResult, error) {
	var out []Fig7bResult
	for _, kind := range []WorkerKind{KindRLlib, KindRLgraph} {
		learner, env, err := apexLearner(points, true)
		if err != nil {
			return nil, err
		}
		cfg := distexec.ApexConfig{
			NumWorkers:       workers,
			TaskSize:         50,
			NumReplayShards:  2,
			ReplayCapacity:   50000,
			BatchSize:        64,
			SyncWeightsEvery: 10,
		}
		ex, err := distexec.NewApex(cfg, learner, env.StateSpace(),
			apexWorkerFactory(kind, points, 4, true))
		if err != nil {
			return nil, err
		}
		res, err := ex.Run(distexec.RunOptions{
			Duration:            maxTime,
			TargetReward:        target,
			SampleTimelineEvery: 500 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		r := Fig7bResult{Kind: kind, Timeline: res.Timeline, SolvedSec: -1}
		if res.SolvedAt != nil {
			r.SolvedSec = res.SolvedAt.Seconds
		}
		out = append(out, r)
	}
	return out, nil
}
