package distexec

import (
	"testing"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/baselines/rlliblike"
	"rlgraph/internal/components/nn"
	"rlgraph/internal/components/optimizers"
	"rlgraph/internal/devices"
	"rlgraph/internal/envs"
	"rlgraph/internal/execution"
	"rlgraph/internal/tensor"
)

func newDQN(t *testing.T, env envs.Env, seed int64) *agents.DQN {
	t.Helper()
	cfg := agents.DQNConfig{
		Backend:     "static",
		Network:     []nn.LayerSpec{{Type: "dense", Units: 16, Activation: "relu"}},
		Gamma:       0.99,
		NStep:       3,
		DoubleQ:     true,
		Memory:      agents.MemoryConfig{Type: "prioritized", Capacity: 5000},
		Optimizer:   optimizers.Config{Type: "adam", LearningRate: 1e-3},
		Exploration: agents.ExplorationConfig{Initial: 1, Final: 0.1, DecaySteps: 2000},
		BatchSize:   32,
		Seed:        seed,
	}
	a, err := agents.NewDQN(cfg, env.StateSpace(), env.ActionSpace())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Build(); err != nil {
		t.Fatal(err)
	}
	return a
}

func gridEnvFactory(seed int64) envs.Env { return envs.NewGridWorld(3, seed) }

func TestApexEndToEndRLgraphWorkers(t *testing.T) {
	env := gridEnvFactory(1)
	learner := newDQN(t, env, 99)
	cfg := ApexConfig{
		NumWorkers:      2,
		TaskSize:        20,
		NumReplayShards: 2,
		ReplayCapacity:  2000,
		BatchSize:       16,
	}
	ex, err := NewApex(cfg, learner, env.StateSpace(), func(i int) (SampleWorker, error) {
		agent := newDQN(t, env, int64(i))
		vec := envs.NewVectorEnv(gridEnvFactory(int64(10+i)), gridEnvFactory(int64(20+i)))
		return execution.NewWorker(agent, vec, execution.WorkerConfig{
			NStep: 3, Gamma: 0.99, ComputePriorities: true,
		}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(RunOptions{Duration: 700 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames == 0 {
		t.Fatal("no frames collected")
	}
	if res.Updates == 0 {
		t.Fatal("no learner updates")
	}
	if res.FPS <= 0 {
		t.Fatalf("fps = %g", res.FPS)
	}
	if res.ActorCalls == 0 {
		t.Fatal("no actor calls counted")
	}
}

func TestApexWithRLlibLikeWorkers(t *testing.T) {
	env := gridEnvFactory(2)
	learner := newDQN(t, env, 77)
	cfg := ApexConfig{NumWorkers: 1, TaskSize: 10, NumReplayShards: 1,
		ReplayCapacity: 1000, BatchSize: 8}
	var blWorker *rlliblike.Worker
	ex, err := NewApex(cfg, learner, env.StateSpace(), func(i int) (SampleWorker, error) {
		agent := newDQN(t, env, int64(i+30))
		vec := envs.NewVectorEnv(gridEnvFactory(int64(40 + i)))
		blWorker = rlliblike.NewWorker(agent, vec, 3, 0.99, true, 1)
		return blWorker, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(RunOptions{Duration: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames == 0 {
		t.Fatal("no frames")
	}
	// The incremental execution plan must show many more executor calls
	// than steps — the inefficiency the paper quantifies.
	if blWorker.ExecutorCalls <= int(res.Frames)/2 {
		t.Fatalf("rlliblike made %d executor calls for %d frames", blWorker.ExecutorCalls, res.Frames)
	}
}

func newIMPALA(t *testing.T, env envs.Env, seed int64) *agents.IMPALA {
	t.Helper()
	cfg := agents.IMPALAConfig{
		Backend:    "static",
		Network:    []nn.LayerSpec{{Type: "dense", Units: 16, Activation: "relu"}},
		RolloutLen: 5,
		Optimizer:  optimizers.Config{Type: "adam", LearningRate: 1e-3},
		Seed:       seed,
	}
	a, err := agents.NewIMPALA(cfg, env.StateSpace(), env.ActionSpace())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Build(); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestIMPALAEndToEnd(t *testing.T) {
	env := gridEnvFactory(4)
	learner := newIMPALA(t, env, 88)
	ex, err := NewIMPALAExec(IMPALAConfig{NumActors: 2, QueueCapacity: 8},
		learner, env.StateSpace(), func(i int) (*agents.IMPALA, envs.Env, error) {
			return newIMPALA(t, env, int64(i)), gridEnvFactory(int64(50 + i)), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(500 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames == 0 || res.Rollouts == 0 {
		t.Fatalf("frames=%d rollouts=%d", res.Frames, res.Rollouts)
	}
	if res.Updates == 0 {
		t.Fatal("no updates")
	}
}

func TestIMPALABaselineOverheadsSlower(t *testing.T) {
	// With identical substrate, the DM-style overheads must cost
	// throughput. Short runs are noisy; assert only that both run and that
	// the baseline flag is wired through.
	env := gridEnvFactory(5)
	run := func(baseline bool) *IMPALAResult {
		learner := newIMPALA(t, env, 21)
		cfg := IMPALAConfig{NumActors: 1, QueueCapacity: 4, BaselineOverheads: baseline}
		ex, err := NewIMPALAExec(cfg, learner, env.StateSpace(),
			func(i int) (*agents.IMPALA, envs.Env, error) {
				return newIMPALA(t, env, int64(i+5)), gridEnvFactory(int64(60 + i)), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ex.Run(300 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(false)
	b := run(true)
	if a.Frames == 0 || b.Frames == 0 {
		t.Fatal("no frames")
	}
}

func TestMultiGPULearnerVirtualTime(t *testing.T) {
	env := gridEnvFactory(6)
	mk := func(gpus int) *MultiGPULearner {
		agent := newDQN(t, env, 1)
		var clock devices.Clock
		return NewMultiGPULearner(agent, devices.DefaultRegistry(gpus),
			devices.UpdateCost{OverheadSec: 0.0001}, &clock)
	}
	batch := &execution.Batch{
		S: tensor.New(64, 9), A: tensor.New(64), R: tensor.New(64),
		NS: tensor.New(64, 9), T: tensor.Ones(64),
	}
	one := mk(1)
	two := mk(2)
	if _, err := one.Update(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := two.Update(batch); err != nil {
		t.Fatal(err)
	}
	if !(two.Clock.Now() < one.Clock.Now()) {
		t.Fatalf("2-GPU update (%g) not faster than 1-GPU (%g)", two.Clock.Now(), one.Clock.Now())
	}
	one.ChargeSampling(100, 0.001)
	if one.Clock.Now() < 0.1 {
		t.Fatal("sampling time not charged")
	}
	if one.Elapsed() <= 0 {
		t.Fatal("elapsed not positive")
	}
}
