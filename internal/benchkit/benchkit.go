// Package benchkit implements the experiment workloads that regenerate the
// paper's figures (Fig. 5a–9, DESIGN.md §4) plus the two system runs that
// have no paper counterpart: chaos (Ape-X under injected faults) and live
// (trainer → parameter server → serving fleet). Each experiment is a plain
// function returning typed rows so the root bench_test.go benchmarks and the
// cmd/rlgraph-bench series printer share one implementation; only live has
// acceptance gates (Gate, WriteJSON). Kernel, plan and serving performance
// are not measured here: the regression benchmark under bench/ and the
// go test -bench shape benchmarks own them. Absolute numbers differ from the
// paper (their testbed was GCP with V100s; ours is a pure-Go simulator on one
// machine) — the reproduced object is the *shape*: who wins, by roughly what
// factor, and where curves cross.
package benchkit

import (
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/components/memories"
	"rlgraph/internal/components/nn"
	"rlgraph/internal/components/optimizers"
	"rlgraph/internal/envs"
	"rlgraph/internal/exec"
	"rlgraph/internal/spaces"
)

// Scale shrinks cluster-scale parameters to laptop scale while preserving
// each experiment's structure. Scale=1 is the default laptop preset; larger
// values approach the paper's sizes.
type Scale struct {
	// ApexWorkers are the worker counts swept in Fig. 6 (paper:
	// 16..256).
	ApexWorkers []int
	// ApexDuration is the measurement window per point.
	ApexDuration time.Duration
	// TaskSizes and EnvCounts are swept in Fig. 7a (paper: 200..3200 ×
	// {1,4,8}).
	TaskSizes []int
	EnvCounts []int
	// ActEnvCounts are swept in Fig. 5b (paper: 1..32).
	ActEnvCounts []int
	// ActSteps is the number of act iterations per Fig. 5b point.
	ActSteps int
	// LearnTarget is the mean episode reward treated as "solved" in the
	// learning-curve experiments (paper: 21 on full Pong).
	LearnTarget float64
	// LearnMaxTime bounds learning-curve runs.
	LearnMaxTime time.Duration
	// PongPoints scales episode length (paper: 21 points).
	PongPoints int
	// ImpalaActors are the actor counts swept in Fig. 9 (paper: 16..256).
	ImpalaActors []int
	// ImpalaDuration is the measurement window per point.
	ImpalaDuration time.Duration
	// LiveDuration/LiveReplicas/LiveClients/LivePublishEvery configure the
	// live trainer→fleet weight-sync benchmark (trainer wall-clock budget,
	// serving-fleet size, greedy-eval client count, and the learner-update
	// interval between weight publishes).
	LiveDuration     time.Duration
	LiveReplicas     int
	LiveClients      int
	LivePublishEvery int
}

// LaptopScale is the default scaled-down experiment preset.
func LaptopScale() Scale {
	return Scale{
		ApexWorkers:      []int{1, 2, 4, 8},
		ApexDuration:     2 * time.Second,
		TaskSizes:        []int{25, 50, 100, 200, 400},
		EnvCounts:        []int{1, 4, 8},
		ActEnvCounts:     []int{1, 2, 4, 8, 16, 32},
		ActSteps:         30,
		LearnTarget:      1.5,
		LearnMaxTime:     240 * time.Second,
		PongPoints:       3,
		ImpalaActors:     []int{1, 2, 4, 8},
		ImpalaDuration:   2 * time.Second,
		LiveDuration:     12 * time.Second,
		LiveReplicas:     3,
		LiveClients:      3,
		LivePublishEvery: 25,
	}
}

// QuickScale is a fast smoke-test preset used by the benchmarks themselves.
func QuickScale() Scale {
	s := LaptopScale()
	s.ApexWorkers = []int{1, 2}
	s.ApexDuration = 400 * time.Millisecond
	s.TaskSizes = []int{25, 50}
	s.EnvCounts = []int{1, 4}
	s.ActEnvCounts = []int{1, 4}
	s.ActSteps = 10
	s.LearnTarget = 0.5
	s.LearnMaxTime = 10 * time.Second
	s.PongPoints = 2
	s.ImpalaActors = []int{1, 2}
	s.ImpalaDuration = 400 * time.Millisecond
	s.LiveDuration = 2 * time.Second
	s.LiveReplicas = 2
	s.LiveClients = 2
	s.LivePublishEvery = 10
	return s
}

// --- Shared workload builders -------------------------------------------

// atariNet is the standard 3-conv + dueling architecture of the paper's
// Fig. 5 workloads, on 84×84×1 frames.
func atariNet() []nn.LayerSpec {
	return []nn.LayerSpec{
		{Type: "conv2d", Filters: 16, Kernel: 8, Stride: 4, Activation: "relu"},
		{Type: "conv2d", Filters: 32, Kernel: 4, Stride: 2, Activation: "relu"},
		{Type: "conv2d", Filters: 32, Kernel: 3, Stride: 1, Activation: "relu"},
		{Type: "flatten"},
		{Type: "dense", Units: 256, Activation: "relu"},
	}
}

// featureNet is the cheap trunk used for feature-mode Pong workloads.
func featureNet() []nn.LayerSpec {
	return []nn.LayerSpec{
		{Type: "dense", Units: 64, Activation: "relu"},
		{Type: "dense", Units: 64, Activation: "relu"},
	}
}

// DuelingDQNConfig is the dueling-DQN-with-prioritized-replay agent of
// Fig. 5a, parameterized by backend and network. Pixel networks get a small
// replay capacity: an 84×84 frame is ~56 KB, so Atari-scale capacities would
// cost gigabytes in benchmarks that never fill the memory.
func DuelingDQNConfig(backendName string, network []nn.LayerSpec, seed int64) agents.DQNConfig {
	capacity := 20000
	for _, l := range network {
		if l.Type == "conv2d" {
			capacity = 512
			break
		}
	}
	return agents.DQNConfig{
		Backend:     backendName,
		Network:     network,
		Dueling:     true,
		DoubleQ:     true,
		Huber:       true,
		Gamma:       0.99,
		NStep:       3,
		Memory:      agents.MemoryConfig{Type: "prioritized", Capacity: capacity},
		Optimizer:   optimizers.Config{Type: "adam", LearningRate: 1e-4},
		Exploration: agents.ExplorationConfig{Initial: 1, Final: 0.02, DecaySteps: 20000},
		BatchSize:   32,
		Seed:        seed,
	}
}

// BuildAgent constructs and builds a DQN for an env.
func BuildAgent(cfg agents.DQNConfig, env envs.Env) (*agents.DQN, error) {
	a, err := agents.NewDQN(cfg, env.StateSpace(), env.ActionSpace())
	if err != nil {
		return nil, err
	}
	if _, err := a.Build(); err != nil {
		return nil, err
	}
	return a, nil
}

// --- Fig. 5a: build overheads -------------------------------------------

// Fig5aResult is one build-overhead measurement.
type Fig5aResult struct {
	Architecture string
	Backend      string
	TraceSec     float64
	BuildSec     float64
	Components   int
}

// Fig5a measures one-time build overheads for a single prioritized-replay
// component and for the full dueling-DQN-with-prioritized-replay agent, on
// both backends (paper Fig. 5a).
func Fig5a() ([]Fig5aResult, error) {
	var out []Fig5aResult

	for _, b := range exec.Backends() {
		// Single memory component.
		mem := memories.NewPrioritizedReplay("prioritized-replay", 512, 5, 0.6, 0.4, 1)
		sB := spaces.NewFloatBox(84, 84, 1).WithBatchRank()
		fB := spaces.NewFloatBox().WithBatchRank()
		ct, err := exec.NewComponentTest(b, mem.Component, exec.InputSpaces{
			"insert": {sB, fB, fB, sB, fB},
			"sample": {spaces.NewFloatBox()},
			"update": {fB, fB},
		})
		if err != nil {
			return nil, err
		}
		rep := ct.Report()
		out = append(out, Fig5aResult{
			Architecture: "Prioritized replay",
			Backend:      b,
			TraceSec:     rep.TraceTime.Seconds(),
			BuildSec:     rep.BuildTime.Seconds(),
			Components:   rep.NumComponents,
		})

		// Full DQN architecture.
		env := envs.NewPongSim(envs.PongConfig{Obs: envs.PongPixels, Seed: 1, OpponentSkill: envs.DefaultPongOpponent})
		agent, err := agents.NewDQN(DuelingDQNConfig(b, atariNet(), 1), env.StateSpace(), env.ActionSpace())
		if err != nil {
			return nil, err
		}
		arep, err := agent.Build()
		if err != nil {
			return nil, err
		}
		out = append(out, Fig5aResult{
			Architecture: "DQN",
			Backend:      b,
			TraceSec:     arep.TraceTime.Seconds(),
			BuildSec:     arep.BuildTime.Seconds(),
			Components:   arep.NumComponents,
		})
	}
	return out, nil
}
