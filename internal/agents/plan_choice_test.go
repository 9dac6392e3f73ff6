package agents

import (
	"math/rand"
	"testing"

	"rlgraph/internal/components/memories"
	"rlgraph/internal/envs"
	"rlgraph/internal/exec"
	"rlgraph/internal/graph"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// TestPlansChooseTheirExecutor: at kernel parallelism 2 and with no
// SetParallelism call, the pixel network's update plan runs in parallel and
// its act plan serially, and every plan the dense workloads run is serial:
// dqn_cartpole's act, observe and update, the Ape-X learner's act and
// external update, a prioritized shard on the static backend, and a
// serving-sized act of 32 rows. These are the plans train_pixels,
// train_dense, apex_dist and serve_fleet run.
func TestPlansChooseTheirExecutor(t *testing.T) {
	defer tensor.SetKernelParallelism(tensor.KernelParallelism())
	tensor.SetKernelParallelism(2)
	auto := cell{backend: "static", kernels: 2}
	rng := rand.New(rand.NewSource(1))
	session := func(a Agent) *graph.Session {
		return a.(interface{ Executor() exec.Executor }).Executor().(*exec.StaticExecutor).Session()
	}
	act := func(a *DQN, env envs.Env, n int) {
		if _, err := a.GetActions(env.StateSpace().WithBatchRank().Sample(rng, n), true); err != nil {
			t.Fatal(err)
		}
	}
	fill := func(a *DQN, env envs.Env, n int) {
		states := env.StateSpace().WithBatchRank()
		if err := a.Observe(states.Sample(rng, n), env.ActionSpace().WithBatchRank().Sample(rng, n),
			tensor.RandNormal(rng, 0, 1, n), states.Sample(rng, n), tensor.New(n)); err != nil {
			t.Fatal(err)
		}
	}

	pong := envs.NewPongSim(envs.PongConfig{Obs: envs.PongPixels, FrameSkip: 4, OpponentSkill: envs.DefaultPongOpponent, Seed: 1})
	pixels := shippedAgent(t, "dueling_dqn_pixels", 1, nil, pong, auto).(*DQN)
	fill(pixels, pong, 64)
	mustUpdate(t, pixels, 1) // the costing run
	act(pixels, pong, 8)
	act(pixels, pong, 8)
	mustUpdate(t, pixels, 2)
	if got := session(pixels).ParallelRuns(); got != 2 {
		t.Errorf("dueling_dqn_pixels: %d parallel runs, want the 2 updates after the first", got)
	}

	cartpole := envs.NewCartPole(1)
	dense := shippedAgent(t, "dqn_cartpole", 1, nil, cartpole, auto).(*DQN)
	for i := 0; i < 3; i++ {
		fill(dense, cartpole, 32)
		act(dense, cartpole, 8)
		mustUpdate(t, dense, 1)
	}
	if got := session(dense).ParallelRuns(); got != 0 {
		t.Errorf("dqn_cartpole: %d parallel runs, want 0", got)
	}

	features := envs.NewPongSim(envs.PongConfig{Obs: envs.PongFeatures, FrameSkip: 4, OpponentSkill: envs.DefaultPongOpponent, Seed: 1})
	learner := shippedAgent(t, "apex_pong", 1, nil, features, auto).(*DQN)
	sB, fB := features.StateSpace().WithBatchRank(), spaces.NewFloatBox().WithBatchRank()
	shard, err := exec.NewComponentTest("static", memories.NewPrioritizedReplay("replay-0", 1024, 5, 0.6, 0.4, 9).Component, exec.InputSpaces{
		"insert_with_priorities": {sB, fB, fB, sB, fB, fB},
		"sample":                 {spaces.NewFloatBox()},
		"update":                 {fB, fB},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		n := 64
		states := sB.Sample(rng, n)
		acts, err := learner.GetActions(states, true)
		if err != nil {
			t.Fatal(err)
		}
		prio := tensor.Full(1, n)
		if _, err := shard.Test("insert_with_priorities", states, acts, tensor.RandNormal(rng, 0, 1, n), sB.Sample(rng, n), tensor.New(n), prio); err != nil {
			t.Fatal(err)
		}
		b, err := shard.Test("sample", tensor.Scalar(float64(learner.cfg.BatchSize)))
		if err != nil {
			t.Fatal(err)
		}
		_, td, err := learner.UpdateExternal(b[0], b[1], b[2], b[3], b[4], b[6])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := shard.Test("update", b[5], td); err != nil {
			t.Fatal(err)
		}
		act(learner, features, 32) // a full serving micro-batch
		act(learner, features, 1)
	}
	if got := session(learner).ParallelRuns(); got != 0 {
		t.Errorf("Ape-X learner: %d parallel runs, want 0", got)
	}
	if got := shard.Executor().(*exec.StaticExecutor).Session().ParallelRuns(); got != 0 {
		t.Errorf("prioritized shard: %d parallel runs, want 0", got)
	}
}
