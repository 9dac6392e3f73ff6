package agents

import (
	"math"
	"testing"

	"rlgraph/internal/components/nn"
	"rlgraph/internal/components/optimizers"
	"rlgraph/internal/exec"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// TestDQNUpdatePathOnDefineByRun exercises the full observe/update cycle on
// the define-by-run backend, which differentiates the nodes each update pass
// recorded rather than a gradient sub-graph built once.
func TestDQNUpdatePathOnDefineByRun(t *testing.T) {
	cfg := smallDQNConfig("define-by-run")
	agent, err := NewDQN(cfg, spaces.NewFloatBox(4), spaces.NewIntBox(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Build(); err != nil {
		t.Fatal(err)
	}
	n := 64
	s := tensor.New(n, 4)
	a := tensor.New(n)
	r := tensor.Ones(n)
	tm := tensor.Ones(n)
	if err := agent.Observe(s, a, r, s, tm); err != nil {
		t.Fatal(err)
	}
	first, err := agent.Update()
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 60; i++ {
		if last, err = agent.Update(); err != nil {
			t.Fatal(err)
		}
	}
	if math.IsNaN(last) || last >= first {
		t.Fatalf("define-by-run updates did not reduce loss: %g → %g", first, last)
	}
}

// TestBackendsLearnIdentically verifies both backends produce the same
// weights after the same deterministic update sequence — the strongest
// cross-backend contract (same components, same data, same result).
func TestBackendsLearnIdentically(t *testing.T) {
	makeAndTrain := func(backendName string) map[string]*tensor.Tensor {
		cfg := DQNConfig{
			Backend:     backendName,
			Network:     []nn.LayerSpec{{Type: "dense", Units: 8, Activation: "tanh"}},
			Gamma:       0.9,
			Memory:      MemoryConfig{Type: "replay", Capacity: 128},
			Optimizer:   optimizers.Config{Type: "adam", LearningRate: 0.05},
			Exploration: ExplorationConfig{Initial: 0, Final: 0, DecaySteps: 1},
			BatchSize:   16,
			Seed:        3,
		}
		agent, err := NewDQN(cfg, spaces.NewFloatBox(3), spaces.NewIntBox(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := agent.Build(); err != nil {
			t.Fatal(err)
		}
		// Deterministic data; the memory RNG is seeded identically in both
		// agents, so sampled batches match.
		n := 32
		s := tensor.Arange(0, n*3).Reshape(n, 3)
		a := tensor.New(n)
		for i := 0; i < n; i++ {
			a.Data()[i] = float64(i % 2)
		}
		r := tensor.Ones(n)
		tm := tensor.Ones(n)
		if err := agent.Observe(s, a, r, s, tm); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := agent.Update(); err != nil {
				t.Fatal(err)
			}
		}
		return agent.GetWeights()
	}
	w1 := makeAndTrain("static")
	w2 := makeAndTrain("define-by-run")
	if len(w1) != len(w2) || len(w1) == 0 {
		t.Fatalf("weight sets differ in size: %d vs %d", len(w1), len(w2))
	}
	for name, v1 := range w1 {
		v2, ok := w2[name]
		if !ok {
			t.Fatalf("missing weight %q on define-by-run", name)
		}
		if !v1.Equal(v2) {
			t.Fatalf("weight %q diverged between backends", name)
		}
	}
}

// TestIMPALAWeightTransferAcrossAgents checks the actor-learner weight path:
// a learner's weights installed into an actor change the actor's logits to
// match the learner's.
func TestIMPALAWeightTransferAcrossAgents(t *testing.T) {
	mk := func(seed int64) *IMPALA {
		cfg := IMPALAConfig{
			Backend:    "static",
			Network:    []nn.LayerSpec{{Type: "dense", Units: 12, Activation: "relu"}},
			RolloutLen: 3,
			Seed:       seed,
		}
		a, err := NewIMPALA(cfg, spaces.NewFloatBox(5), spaces.NewIntBox(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Build(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	learner := mk(1)
	actor := mk(2)
	st := tensor.Ones(1, 5)
	l1, _ := learner.Executor().Execute("get_logits", st)
	a1, _ := actor.Executor().Execute("get_logits", st)
	if l1[0].AllClose(a1[0], 1e-12) {
		t.Fatal("different seeds should differ")
	}
	if err := actor.SetWeights(learner.GetWeights()); err != nil {
		t.Fatal(err)
	}
	a2, _ := actor.Executor().Execute("get_logits", st)
	if !l1[0].AllClose(a2[0], 1e-12) {
		t.Fatal("weight transfer did not align policies")
	}
}

// TestDQNComponentCount documents the architecture scale: the dueling
// prioritized DQN must be tens of components, as in the paper's Fig. 5a
// workload (43 components).
func TestDQNComponentCount(t *testing.T) {
	cfg := smallDQNConfig("static")
	cfg.Memory.Type = "prioritized"
	cfg.Dueling = true
	cfg.Network = []nn.LayerSpec{
		{Type: "conv2d", Filters: 4, Kernel: 3, Stride: 2, Activation: "relu"},
		{Type: "flatten"},
		{Type: "dense", Units: 16, Activation: "relu"},
	}
	agent, err := NewDQN(cfg, spaces.NewFloatBox(12, 12, 1), spaces.NewIntBox(4))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := agent.Build()
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumComponents < 25 || rep.NumComponents > 80 {
		t.Fatalf("components = %d, want tens (paper: 43)", rep.NumComponents)
	}
}

// TestExplorationAdvancesDuringActing verifies the annealing counter moves
// with acting (exploration is stateful across calls).
func TestExplorationAdvancesDuringActing(t *testing.T) {
	agent, err := NewDQN(smallDQNConfig("static"), spaces.NewFloatBox(4), spaces.NewIntBox(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Build(); err != nil {
		t.Fatal(err)
	}
	before := agent.Exploration().Epsilon()
	for i := 0; i < 50; i++ {
		if _, err := agent.GetActions(tensor.New(8, 4), true); err != nil {
			t.Fatal(err)
		}
	}
	after := agent.Exploration().Epsilon()
	if !(after < before) {
		t.Fatalf("epsilon did not anneal: %g → %g", before, after)
	}
}

// TestIMPALAUpdateOnDefineByRun exercises the V-trace update path under the
// define-by-run backend (eager autodiff + host-side scan).
func TestIMPALAUpdateOnDefineByRun(t *testing.T) {
	cfg := IMPALAConfig{
		Backend:    "define-by-run",
		Network:    []nn.LayerSpec{{Type: "dense", Units: 16, Activation: "relu"}},
		RolloutLen: 4,
		Optimizer:  optimizers.Config{Type: "adam", LearningRate: 1e-2},
		Seed:       9,
	}
	agent, err := NewIMPALA(cfg, spaces.NewFloatBox(3), spaces.NewIntBox(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Build(); err != nil {
		t.Fatal(err)
	}
	T, B := 4, 2
	n := T * B
	states := tensor.Arange(0, n*3).Reshape(n, 3)
	boot := tensor.New(B, 3)
	rewards := tensor.Ones(n)
	discounts := tensor.Full(0.9, n)
	var first, last float64
	for i := 0; i < 40; i++ {
		acts, logp, err := agent.ActSample(states)
		if err != nil {
			t.Fatal(err)
		}
		loss, err := agent.UpdateRollout(states, acts, rewards, discounts, logp, boot)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if math.IsNaN(last) || math.IsNaN(first) {
		t.Fatal("NaN loss on define-by-run")
	}
}

// TestMultiGPUTowerExpansion verifies the synchronous multi-GPU strategy:
// the expanded tower graph computes the same update as the plain full-batch
// update (shared weights, averaged gradients), and tower operations carry
// per-GPU device tags.
func TestMultiGPUTowerExpansion(t *testing.T) {
	mk := func(gpus int) *DQN {
		cfg := smallDQNConfig("static")
		cfg.NumGPUs = gpus
		cfg.Optimizer = optimizers.Config{Type: "rmsprop", LearningRate: 0.1}
		cfg.Exploration = ExplorationConfig{Initial: 0, Final: 0, DecaySteps: 1}
		agent, err := NewDQN(cfg, spaces.NewFloatBox(4), spaces.NewIntBox(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := agent.Build(); err != nil {
			t.Fatal(err)
		}
		return agent
	}
	single := mk(1)
	multi := mk(2)

	n := 32
	s := tensor.Arange(0, n*4).Reshape(n, 4)
	act := tensor.New(n)
	for i := 0; i < n; i++ {
		act.Data()[i] = float64(i % 2)
	}
	r := tensor.Ones(n)
	tm := tensor.Ones(n)
	w := tensor.Ones(n)

	lossS, tdS, err := single.UpdateExternal(s, act, r, s, tm, w)
	if err != nil {
		t.Fatal(err)
	}
	lossM, tdM, err := multi.UpdateMultiGPU(s, act, r, s, tm, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lossS-lossM) > 1e-9 {
		t.Fatalf("tower loss %g != full-batch loss %g", lossM, lossS)
	}
	if !tdS.AllClose(tdM, 1e-9) {
		t.Fatal("tower TD errors differ from full batch")
	}
	// Identical updates → identical post-update weights.
	ws, wm := single.GetWeights(), multi.GetWeights()
	for name, v := range ws {
		if !v.AllClose(wm[name], 1e-9) {
			t.Fatalf("weight %q diverged between strategies", name)
		}
	}
	// Tower device tags appear in the built graph.
	st := multi.Executor().(*exec.StaticExecutor)
	devs := map[string]int{}
	for _, nd := range st.Graph().Nodes() {
		devs[nd.Device()]++
	}
	if devs["gpu0"] == 0 || devs["gpu1"] == 0 {
		t.Fatalf("tower devices missing: %v", devs)
	}

	// UpdateMultiGPU on a single-GPU agent errors.
	if _, _, err := single.UpdateMultiGPU(s, act, r, s, tm, w); err == nil {
		t.Fatal("expected error without num_gpus")
	}
}
