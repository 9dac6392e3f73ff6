package agents

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rlgraph/internal/components/nn"
	"rlgraph/internal/components/optimizers"
	"rlgraph/internal/envs"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

func smallDQNConfig(backendName string) DQNConfig {
	return DQNConfig{
		Backend: backendName,
		Network: []nn.LayerSpec{{Type: "dense", Units: 32, Activation: "relu"}},
		Gamma:   0.95,
		Memory:  MemoryConfig{Type: "replay", Capacity: 2000},
		Optimizer: optimizers.Config{
			Type: "adam", LearningRate: 5e-3,
		},
		Exploration:     ExplorationConfig{Initial: 1, Final: 0.05, DecaySteps: 1500},
		BatchSize:       32,
		TargetSyncEvery: 25,
		Seed:            1,
	}
}

func TestDQNBuildBothBackends(t *testing.T) {
	for _, b := range []string{"static", "define-by-run"} {
		agent, err := NewDQN(smallDQNConfig(b), spaces.NewFloatBox(4), spaces.NewIntBox(2))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := agent.Build()
		if err != nil {
			t.Fatal(err)
		}
		if rep.NumComponents < 10 {
			t.Fatalf("%s: components = %d", b, rep.NumComponents)
		}
		a, err := agent.GetActions(tensor.New(3, 4), false)
		if err != nil {
			t.Fatal(err)
		}
		if a.Size() != 3 {
			t.Fatalf("actions = %v", a)
		}
	}
}

func TestDQNObserveUpdateLowersLossOnFixedBatch(t *testing.T) {
	agent, err := NewDQN(smallDQNConfig("static"), spaces.NewFloatBox(4), spaces.NewIntBox(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Build(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	// Fill memory with a consistent synthetic MDP: reward = +1 for action
	// 0, terminal transitions.
	n := 200
	s := tensor.RandNormal(rng, 0, 1, n, 4)
	a := tensor.New(n)
	r := tensor.New(n)
	terms := tensor.Ones(n)
	for i := 0; i < n; i++ {
		act := float64(rng.Intn(2))
		a.Data()[i] = act
		if act == 0 {
			r.Data()[i] = 1
		}
	}
	if err := agent.Observe(s, a, r, s, terms); err != nil {
		t.Fatal(err)
	}
	if agent.MemorySize() != n {
		t.Fatalf("memory = %d", agent.MemorySize())
	}
	first, err := agent.Update()
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 150; i++ {
		last, err = agent.Update()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !(last < first*0.5) {
		t.Fatalf("loss did not drop: first %g last %g", first, last)
	}
}

func TestDQNPrioritizedPathRuns(t *testing.T) {
	cfg := smallDQNConfig("static")
	cfg.Memory.Type = "prioritized"
	cfg.DoubleQ = true
	cfg.Dueling = true
	cfg.Huber = true
	agent, err := NewDQN(cfg, spaces.NewFloatBox(4), spaces.NewIntBox(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Build(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	s := tensor.RandNormal(rng, 0, 1, 64, 4)
	a := tensor.New(64)
	r := tensor.RandNormal(rng, 0, 1, 64)
	tm := tensor.New(64)
	if err := agent.Observe(s, a, r, s, tm); err != nil {
		t.Fatal(err)
	}
	// With-priorities path (Ape-X worker behaviour).
	prio, err := agent.ComputePriorities(s, a, r, s, tm)
	if err != nil {
		t.Fatal(err)
	}
	if prio.Size() != 64 {
		t.Fatalf("priorities = %v", prio.Shape())
	}
	if _, err := agent.Update(); err != nil {
		t.Fatal(err)
	}
	// External-batch learner path.
	w := tensor.Ones(64)
	loss, td, err := agent.UpdateExternal(s, a, r, s, tm, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) || td.Size() != 64 {
		t.Fatalf("loss=%g td=%v", loss, td.Shape())
	}
}

func TestDQNTargetSyncKeepsNetworksEqual(t *testing.T) {
	agent, err := NewDQN(smallDQNConfig("static"), spaces.NewFloatBox(4), spaces.NewIntBox(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Build(); err != nil {
		t.Fatal(err)
	}
	// Same seeds: identical at build.
	ow := agent.online.AllVariables().All()
	tw := agent.target.AllVariables().All()
	for i := range ow {
		if !ow[i].Val.Equal(tw[i].Val) {
			t.Fatal("target differs from online at build")
		}
	}
	// Diverge, then sync.
	ow[0].Val.Data()[0] += 1
	if ow[0].Val.Equal(tw[0].Val) {
		t.Fatal("mutation aliased")
	}
	if err := agent.SyncTarget(); err != nil {
		t.Fatal(err)
	}
	for i := range ow {
		if !ow[i].Val.Equal(tw[i].Val) {
			t.Fatal("sync did not equalize")
		}
	}
}

func TestDQNWeightsRoundTrip(t *testing.T) {
	mk := func(seed int64) *DQN {
		cfg := smallDQNConfig("static")
		cfg.Seed = seed
		a, err := NewDQN(cfg, spaces.NewFloatBox(4), spaces.NewIntBox(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Build(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1 := mk(1)
	a2 := mk(99)
	st := tensor.Ones(1, 4)
	q1, _ := a1.GetQValues(st)
	q2, _ := a2.GetQValues(st)
	if q1.AllClose(q2, 1e-12) {
		t.Fatal("different seeds produced equal networks")
	}
	if err := a2.SetWeights(remap(a1.GetWeights(), "policy", "policy")); err != nil {
		t.Fatal(err)
	}
	q2b, _ := a2.GetQValues(st)
	if !q1.AllClose(q2b, 1e-12) {
		t.Fatal("SetWeights did not transfer behaviour")
	}
	// Export writes every trainable weight.
	var buf bytes.Buffer
	if err := a1.ExportModel(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Weights map[string]json.RawMessage `json:"weights"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.Weights) != len(a1.GetWeights()) {
		t.Fatalf("export: %d weights, err %v; want %d", len(doc.Weights), err, len(a1.GetWeights()))
	}
}

// remap is identity here (names already align across same-architecture
// agents); kept for clarity at call sites.
func remap(w map[string]*tensor.Tensor, _, _ string) map[string]*tensor.Tensor { return w }

func TestFromConfigJSON(t *testing.T) {
	doc := []byte(`{
		"type": "dqn",
		"backend": "static",
		"network": [{"type": "dense", "units": 16, "activation": "relu"}],
		"gamma": 0.9,
		"memory": {"type": "replay", "capacity": 100},
		"optimizer": {"type": "rmsprop", "learning_rate": 0.01},
		"exploration": {"initial": 1, "final": 0.1, "decay_steps": 100},
		"batch_size": 8
	}`)
	agent, err := FromConfig(doc, spaces.NewFloatBox(4), spaces.NewIntBox(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := agent.GetActions(tensor.New(1, 4), true); err != nil {
		t.Fatal(err)
	}
}

func TestFromConfigApexPreset(t *testing.T) {
	doc := []byte(`{
		"type": "apex",
		"network": [{"type": "dense", "units": 16, "activation": "relu"}],
		"memory": {"capacity": 100},
		"batch_size": 8
	}`)
	agent, err := FromConfig(doc, spaces.NewFloatBox(4), spaces.NewIntBox(2))
	if err != nil {
		t.Fatal(err)
	}
	dqn := agent.(*DQN)
	if !dqn.prioritized || !dqn.cfg.DoubleQ || !dqn.cfg.Dueling || dqn.cfg.NStep != 3 {
		t.Fatalf("apex preset wrong: %+v", dqn.cfg)
	}
}

// TestFromConfigRejectsUnknownKeys: a key that names no config field — here
// a momentum the optimizers no longer have — fails the build instead of
// being dropped.
func TestFromConfigRejectsUnknownKeys(t *testing.T) {
	doc := []byte(`{
		"type": "dqn",
		"network": [{"type": "dense", "units": 16, "activation": "relu"}],
		"memory": {"type": "replay", "capacity": 100},
		"optimizer": {"type": "adam", "momentum": 0.9},
		"batch_size": 8
	}`)
	if _, err := FromConfig(doc, spaces.NewFloatBox(4), spaces.NewIntBox(2)); err == nil || !strings.Contains(err.Error(), "momentum") {
		t.Fatalf("unknown optimizer key accepted: %v", err)
	}
}

func TestFromConfigErrors(t *testing.T) {
	if _, err := FromConfig([]byte(`{"type": "sarsa"}`), spaces.NewFloatBox(1), spaces.NewIntBox(2)); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := FromConfig([]byte(`not json`), spaces.NewFloatBox(1), spaces.NewIntBox(2)); err == nil {
		t.Fatal("bad json accepted")
	}
}

// TestDQNLearnsGridWorld is the end-to-end integration test: tabular-scale
// DQN must reach the goal reliably after training.
func TestDQNLearnsGridWorld(t *testing.T) {
	env := envs.NewGridWorld(3, 5)
	cfg := smallDQNConfig("static")
	cfg.Exploration = ExplorationConfig{Initial: 1, Final: 0.05, DecaySteps: 2500}
	cfg.Optimizer = optimizers.Config{Type: "adam", LearningRate: 1e-2}
	agent, err := NewDQN(cfg, env.StateSpace(), env.ActionSpace())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Build(); err != nil {
		t.Fatal(err)
	}

	obs := env.Reset()
	for step := 0; step < 4000; step++ {
		st := obs.Reshape(1, obs.Size())
		at, err := agent.GetActions(st, true)
		if err != nil {
			t.Fatal(err)
		}
		action := int(at.Data()[0])
		next, r, done := env.Step(action)
		term := 0.0
		if done {
			term = 1
		}
		if err := agent.Observe(st,
			tensor.FromSlice([]float64{float64(action)}, 1),
			tensor.FromSlice([]float64{r}, 1),
			next.Reshape(1, next.Size()),
			tensor.FromSlice([]float64{term}, 1)); err != nil {
			t.Fatal(err)
		}
		obs = next
		if done {
			obs = env.Reset()
		}
		if step > 100 && step%4 == 0 {
			if _, err := agent.Update(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Greedy evaluation: must reach the goal in far fewer than max steps.
	wins := 0
	for ep := 0; ep < 10; ep++ {
		obs = env.Reset()
		for step := 0; step < 12; step++ {
			at, err := agent.GetActions(obs.Reshape(1, obs.Size()), false)
			if err != nil {
				t.Fatal(err)
			}
			var r float64
			var done bool
			obs, r, done = env.Step(int(at.Data()[0]))
			if done {
				if r == 1 {
					wins++
				}
				break
			}
		}
	}
	if wins < 8 {
		t.Fatalf("greedy policy reached goal in %d/10 episodes", wins)
	}
}

func TestIMPALABuildAndActSample(t *testing.T) {
	for _, b := range []string{"static", "define-by-run"} {
		cfg := IMPALAConfig{
			Backend:    b,
			Network:    []nn.LayerSpec{{Type: "dense", Units: 16, Activation: "relu"}},
			RolloutLen: 4,
			Seed:       1,
		}
		agent, err := NewIMPALA(cfg, spaces.NewFloatBox(6), spaces.NewIntBox(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := agent.Build(); err != nil {
			t.Fatal(err)
		}
		acts, logp, err := agent.ActSample(tensor.New(5, 6))
		if err != nil {
			t.Fatal(err)
		}
		if acts.Size() != 5 || logp.Size() != 5 {
			t.Fatalf("%s: sizes %v %v", b, acts.Shape(), logp.Shape())
		}
		for i := 0; i < 5; i++ {
			if a := int(acts.Data()[i]); a < 0 || a >= 3 {
				t.Fatalf("action %d out of range", a)
			}
			if logp.Data()[i] > 0 {
				t.Fatalf("logp %g > 0", logp.Data()[i])
			}
		}
	}
}

func TestIMPALAUpdateRolloutRunsAndLearnsValues(t *testing.T) {
	cfg := IMPALAConfig{
		Backend:    "static",
		Network:    []nn.LayerSpec{{Type: "dense", Units: 32, Activation: "tanh"}},
		Gamma:      0.9,
		RolloutLen: 4,
		Optimizer:  optimizers.Config{Type: "adam", LearningRate: 1e-2},
		Seed:       2,
	}
	agent, err := NewIMPALA(cfg, spaces.NewFloatBox(3), spaces.NewIntBox(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Build(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	T, B := 4, 8
	n := T * B
	states := tensor.RandNormal(rng, 0, 1, n, 3)
	boot := tensor.RandNormal(rng, 0, 1, B, 3)
	// Constant reward 1, no terminals: values should move toward 1/(1-γ).
	rewards := tensor.Ones(n)
	discounts := tensor.Full(0.9, n)
	var firstDist, lastDist float64
	for it := 0; it < 120; it++ {
		acts, logp, err := agent.ActSample(states)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := agent.UpdateRollout(states, acts, rewards, discounts, logp, boot); err != nil {
			t.Fatal(err)
		}
		vOut, err := agent.Executor().Execute("get_values", states)
		if err != nil {
			t.Fatal(err)
		}
		mean := 0.0
		for _, v := range vOut[0].Data() {
			mean += v
		}
		mean /= float64(vOut[0].Size())
		dist := math.Abs(mean - 10) // 1/(1-0.9)
		if it == 0 {
			firstDist = dist
		}
		lastDist = dist
	}
	if !(lastDist < firstDist*0.7) {
		t.Fatalf("value estimates did not approach 10: first %g last %g", firstDist, lastDist)
	}
}

func TestAgentsSatisfyInterface(t *testing.T) {
	var _ Agent = (*DQN)(nil)
	var _ Agent = (*IMPALA)(nil)
}
