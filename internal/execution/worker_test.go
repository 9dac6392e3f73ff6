package execution

import (
	"math"
	"testing"

	"rlgraph/internal/agents"
	"rlgraph/internal/components/nn"
	"rlgraph/internal/envs"
	"rlgraph/internal/tensor"
)

func testAgent(t *testing.T, env envs.Env, prioritized bool) *agents.DQN {
	t.Helper()
	cfg := agents.DQNConfig{
		Backend: "static",
		Network: []nn.LayerSpec{{Type: "dense", Units: 16, Activation: "relu"}},
		Gamma:   0.99,
		Memory:  agents.MemoryConfig{Type: "replay", Capacity: 1000},
		Seed:    1,
	}
	if prioritized {
		cfg.Memory.Type = "prioritized"
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

func TestWorkerCollectsBatch(t *testing.T) {
	env1, env2 := envs.NewGridWorld(3, 1), envs.NewGridWorld(3, 2)
	vec := envs.NewVectorEnv(env1, env2)
	agent := testAgent(t, env1, false)
	w := NewWorker(agent, vec, WorkerConfig{NStep: 1, Gamma: 0.99})
	b, err := w.Sample(10)
	if err != nil {
		t.Fatal(err)
	}
	// 10 steps × 2 envs, 1-step transitions: 20 transitions (plus/minus
	// terminal flushes which for 1-step equal the same count).
	if b.Len() < 18 || b.Len() > 22 {
		t.Fatalf("batch len = %d", b.Len())
	}
	if b.Frames != 20 {
		t.Fatalf("frames = %d", b.Frames)
	}
	if !tensor.SameShape(b.S.Shape(), []int{b.Len(), 9}) {
		t.Fatalf("state shape = %v", b.S.Shape())
	}
}

func TestWorkerNStepReturns(t *testing.T) {
	// GridWorld rewards are deterministic (-0.01 per non-goal step), so a
	// 3-step return must be -0.01*(1+γ+γ²) for interior transitions.
	env := envs.NewGridWorld(4, 3)
	vec := envs.NewVectorEnv(env)
	agent := testAgent(t, env, false)
	gamma := 0.5
	w := NewWorker(agent, vec, WorkerConfig{NStep: 3, Gamma: gamma})
	b, err := w.Sample(30)
	if err != nil {
		t.Fatal(err)
	}
	want := -0.01 * (1 + gamma + gamma*gamma)
	sawInterior := false
	for i := 0; i < b.Len(); i++ {
		if b.T.Data()[i] == 0 {
			sawInterior = true
			if math.Abs(b.R.Data()[i]-want) > 1e-12 {
				t.Fatalf("3-step return = %g, want %g", b.R.Data()[i], want)
			}
		}
	}
	if !sawInterior {
		t.Fatal("no interior transitions collected")
	}
}

func TestWorkerTerminalFlushTruncates(t *testing.T) {
	// On a 2x2 grid episodes end fast; terminal transitions must carry
	// terminal=1 and the post-reset state handling must not leak across
	// episodes (window cleared).
	env := envs.NewGridWorld(2, 4)
	vec := envs.NewVectorEnv(env)
	agent := testAgent(t, env, false)
	w := NewWorker(agent, vec, WorkerConfig{NStep: 5, Gamma: 1})
	b, err := w.Sample(40)
	if err != nil {
		t.Fatal(err)
	}
	terminals := 0
	for i := 0; i < b.Len(); i++ {
		if b.T.Data()[i] == 1 {
			terminals++
		}
	}
	if terminals == 0 {
		t.Fatal("no terminal transitions despite finished episodes")
	}
	if len(vec.FinishedEpisodes()) == 0 {
		t.Fatal("no episodes recorded")
	}
}

func TestWorkerBatchedPriorities(t *testing.T) {
	env := envs.NewGridWorld(3, 5)
	vec := envs.NewVectorEnv(env)
	agent := testAgent(t, env, true)
	w := NewWorker(agent, vec, WorkerConfig{NStep: 1, Gamma: 0.9, ComputePriorities: true})
	b, err := w.Sample(15)
	if err != nil {
		t.Fatal(err)
	}
	if b.Prio == nil || b.Prio.Size() != b.Len() {
		t.Fatalf("priorities missing or wrong size")
	}
	for _, p := range b.Prio.Data() {
		if p < 0 || math.IsNaN(p) {
			t.Fatalf("bad priority %g", p)
		}
	}
}

func TestWorkerFrameSkipAccounting(t *testing.T) {
	env := envs.NewPongSim(envs.PongConfig{Seed: 1, FrameSkip: 4, PointsToWin: 3})
	vec := envs.NewVectorEnv(env)
	cfg := agents.DQNConfig{
		Backend: "static",
		Network: []nn.LayerSpec{{Type: "dense", Units: 8}},
		Memory:  agents.MemoryConfig{Capacity: 100, Type: "replay"},
		Seed:    1,
	}
	agent, err := agents.NewDQN(cfg, env.StateSpace(), env.ActionSpace())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Build(); err != nil {
		t.Fatal(err)
	}
	w := NewWorker(agent, vec, WorkerConfig{NStep: 1, Gamma: 0.99, FramesPerStep: 4})
	b, err := w.Sample(10)
	if err != nil {
		t.Fatal(err)
	}
	if b.Frames != 40 {
		t.Fatalf("frames = %d, want 40", b.Frames)
	}
	if w.TotalFrames != 40 {
		t.Fatalf("total frames = %d", w.TotalFrames)
	}
}

func TestWorkerRowPoolReuseKeepsBatchesIndependent(t *testing.T) {
	// Row buffers recycled through the pool must not alias across Sample
	// calls: a batch's rows are snapshots, so mutating one batch (or taking
	// another) cannot change an earlier batch's contents.
	env1, env2 := envs.NewGridWorld(3, 1), envs.NewGridWorld(3, 2)
	vec := envs.NewVectorEnv(env1, env2)
	agent := testAgent(t, env1, false)
	w := NewWorker(agent, vec, WorkerConfig{NStep: 2, Gamma: 0.9})
	b1, err := w.Sample(8)
	if err != nil {
		t.Fatal(err)
	}
	snap := append([]float64(nil), b1.S.Data()...)
	if _, err := w.Sample(8); err != nil {
		t.Fatal(err)
	}
	for i, v := range b1.S.Data() {
		if v != snap[i] {
			t.Fatalf("batch 1 state data mutated at %d after second Sample", i)
		}
	}
	// One-hot GridWorld states: every emitted row must still be a valid
	// observation (exactly one 1 per row), catching stale/zeroed pool rows.
	n := b1.S.Dim(1)
	for i := 0; i < b1.Len(); i++ {
		ones := 0
		for j := 0; j < n; j++ {
			if b1.S.At(i, j) == 1 {
				ones++
			}
		}
		if ones != 1 {
			t.Fatalf("row %d is not a one-hot observation", i)
		}
	}
}

// BenchmarkWorkerSampleAllocs measures steady-state allocations of the
// vectorized sample loop (satellite of the dtype/scratch perf PR): with the
// row pool and the VectorEnv's reused batch buffers, per-step overhead is a
// handful of output-batch allocations rather than one row per env per step.
func BenchmarkWorkerSampleAllocs(b *testing.B) {
	env1, env2 := envs.NewGridWorld(4, 1), envs.NewGridWorld(4, 2)
	vec := envs.NewVectorEnv(env1, env2)
	cfg := agents.DQNConfig{
		Backend: "static",
		Network: []nn.LayerSpec{{Type: "dense", Units: 16, Activation: "relu"}},
		Gamma:   0.99,
		Memory:  agents.MemoryConfig{Type: "replay", Capacity: 1000},
		Seed:    1,
	}
	agent, err := agents.NewDQN(cfg, env1.StateSpace(), env1.ActionSpace())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := agent.Build(); err != nil {
		b.Fatal(err)
	}
	w := NewWorker(agent, vec, WorkerConfig{NStep: 3, Gamma: 0.99})
	if _, err := w.Sample(16); err != nil { // warm pools and windows
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Sample(16); err != nil {
			b.Fatal(err)
		}
	}
}

func TestConcatBatches(t *testing.T) {
	a := &Batch{
		S: tensor.New(2, 3), A: tensor.New(2), R: tensor.New(2),
		NS: tensor.New(2, 3), T: tensor.New(2), Frames: 10, Steps: 5,
	}
	b := &Batch{
		S: tensor.Ones(1, 3), A: tensor.Ones(1), R: tensor.Ones(1),
		NS: tensor.Ones(1, 3), T: tensor.Ones(1), Frames: 4, Steps: 2,
	}
	c := Concat(a, b, &Batch{})
	if c.Len() != 3 || c.Frames != 14 || c.Steps != 7 {
		t.Fatalf("concat: len=%d frames=%d steps=%d", c.Len(), c.Frames, c.Steps)
	}
	if c.A.Data()[2] != 1 {
		t.Fatal("order broken")
	}
}
