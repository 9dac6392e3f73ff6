package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/envs"
	"rlgraph/internal/exec"
	"rlgraph/internal/graph"
	"rlgraph/internal/tensor"
)

const (
	trainEnvs     = 8 // environments in the VectorEnv
	stepsPerCycle = 4 // act/step/observe rounds before each update
	callsPerCycle = 2*stepsPerCycle + 1
	probeCount    = 64
	traceBlocks   = 8 // untraced/traced block pairs in the traced pass
)

// trainSpec is one single-process training workload.
type trainSpec struct {
	name       string
	config     string
	mkEnv      func(seed int64) envs.Env
	frameSkip  int
	warmCycles int
}

func trainDense(o opts) (*outcome, error) {
	return runTrain(o, trainSpec{
		name: "train_dense", config: "dqn_cartpole.json", frameSkip: 1, warmCycles: 2000,
		mkEnv: func(seed int64) envs.Env { return envs.NewCartPole(seed) },
	})
}

func trainPixels(o opts) (*outcome, error) {
	return runTrain(o, trainSpec{
		name: "train_pixels", config: "dueling_dqn_pixels.json", frameSkip: 4, warmCycles: 10,
		mkEnv: func(seed int64) envs.Env {
			return envs.NewPongSim(envs.PongConfig{
				Obs: envs.PongPixels, FrameSkip: 4, PointsToWin: 5, Seed: seed,
				OpponentSkill: envs.DefaultPongOpponent,
			})
		},
	})
}

// trainer is the bench-owned driver loop: one goroutine, a VectorEnv and an
// agent. One cycle is stepsPerCycle x (States, GetActions, StepAll, assemble
// a 1-step batch, Observe) and one Update.
type trainer struct {
	agent  *agents.DQN
	vec    *envs.VectorEnv
	sess   *graph.Session
	report *exec.BuildReport

	prev    *tensor.Tensor // copy of the states acted on; StepAll overwrites the borrowed batch
	acts    []int
	actions *tensor.Tensor
	rewards *tensor.Tensor
	terms   *tensor.Tensor

	cycles   int64
	failed   int64
	nodesUpd []float64 // per traced cycle: nodes evaluated by Update
	runsCyc  []float64 // per traced cycle: session runs
	updMs    []float64 // per traced cycle: Update wall
}

func newTrainer(spec trainSpec, seed int64) (*trainer, error) {
	envList := make([]envs.Env, trainEnvs)
	for i := range envList {
		envList[i] = spec.mkEnv(seed*1000 + int64(i))
	}
	agent, rep, err := buildDQN(spec.config, "static", agentSeed, envList[0])
	if err != nil {
		return nil, err
	}
	se, ok := agent.Executor().(*exec.StaticExecutor)
	if !ok {
		return nil, fmt.Errorf("%s: executor is %s, want static", spec.name, agent.Executor().BackendName())
	}
	return &trainer{
		agent: agent, vec: envs.NewVectorEnv(envList...), sess: se.Session(), report: rep,
		acts:    make([]int, trainEnvs),
		actions: tensor.New(trainEnvs), rewards: tensor.New(trainEnvs), terms: tensor.New(trainEnvs),
	}, nil
}

// cycle runs one training cycle. With a tracer it records one span per call
// into a layer, under a cycle span.
func (t *trainer) cycle(tr *tracer) error {
	op := t.cycles
	t.cycles++
	parent, start := tr.begin(kCycle, op)
	var runs0 int
	if tr != nil {
		runs0 = t.sess.RunCount()
	}
	at := start
	for k := 0; k < stepsPerCycle; k++ {
		states := t.vec.States()
		at = tr.lap(kEnvStates, at, parent, op)

		chosen, err := t.agent.GetActions(states, true)
		if err != nil {
			return fmt.Errorf("get_actions: %w", err)
		}
		at = tr.lap(kAct, at, parent, op)

		if t.prev == nil {
			t.prev = states.Clone()
		} else {
			t.prev.CopyFrom(states)
		}
		for i, a := range chosen.Data() {
			t.acts[i] = int(a)
		}
		copy(t.actions.Data(), chosen.Data())
		at = tr.lap(kAssemble, at, parent, op)

		next, rewards, terms := t.vec.StepAll(t.acts)
		at = tr.lap(kEnvStep, at, parent, op)

		copy(t.rewards.Data(), rewards)
		copy(t.terms.Data(), terms)
		at = tr.lap(kAssemble, at, parent, op)

		if err := t.agent.Observe(t.prev, t.actions, t.rewards, next, t.terms); err != nil {
			return fmt.Errorf("observe: %w", err)
		}
		at = tr.lap(kObserve, at, parent, op)
	}
	var nodes0 int
	if tr != nil {
		nodes0 = t.sess.NodesEvaluated()
	}
	loss, err := t.agent.Update()
	if err != nil {
		return fmt.Errorf("update: %w", err)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.failed++
	}
	if tr != nil {
		end := tr.lap(kUpdate, at, parent, op)
		t.updMs = append(t.updMs, float64(end-at)/1e6)
		t.nodesUpd = append(t.nodesUpd, float64(t.sess.NodesEvaluated()-nodes0))
		t.runsCyc = append(t.runsCyc, float64(t.sess.RunCount()-runs0))
	}
	tr.end(kCycle, parent, start)
	return nil
}

// region runs cycles for d and returns the timestamp after every cycle
// (ns since the region started; the first entry is the start, 0).
func (t *trainer) region(d time.Duration, tr *tracer) ([]int64, error) {
	stamps := make([]int64, 1, 1<<16)
	start := time.Now()
	for {
		if err := t.cycle(tr); err != nil {
			return nil, err
		}
		el := time.Since(start)
		stamps = append(stamps, int64(el))
		if el >= d {
			return stamps, nil
		}
	}
}

// probes walks fresh environments with random actions and keeps probeCount
// observations for the twin oracle.
func probes(spec trainSpec, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed ^ 0x70726f6265))
	env := spec.mkEnv(seed*1000 + 999)
	n := env.ActionSpace().N
	rows := make([]*tensor.Tensor, 0, probeCount)
	obs := env.Reset()
	for len(rows) < probeCount {
		rows = append(rows, obs.Clone())
		for s := 0; s < 3; s++ {
			var done bool
			if obs, _, done = env.Step(rng.Intn(n)); done {
				obs = env.Reset()
			}
		}
	}
	return tensor.Stack(rows...)
}

func runTrain(o opts, spec trainSpec) (*outcome, error) {
	out := newOutcome()
	cfg, err := trainConfig(spec.config)
	if err != nil {
		return nil, err
	}

	warm := o.warm(spec.warmCycles)
	tn, setup, err := measureSetup(o, func() (*trainer, error) {
		tn, err := newTrainer(spec, o.seed)
		for c := 0; c < warm && err == nil; c++ {
			err = tn.cycle(nil)
		}
		return tn, err
	}, nil)
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = setup
	reportBuild(out, tn.report)

	total := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		stamps, err := tn.region(total, nil)
		if err != nil {
			return nil, err
		}
		rate, p50, p90 := blockedSeries(stamps)
		out.values["items_per_s"] = rate * float64(cfg.BatchSize)
		out.values["op_ms_p50"], out.values["op_ms_p90"] = p50, p90
		out.samples["op_ms_p50"], out.samples["op_ms_p90"] = len(stamps)-1, len(stamps)-1
	} else {
		// Untraced and traced blocks alternate, so that drift over the run
		// (replay filling, heap growth) falls on both alike. The untraced
		// blocks are the baseline for trace.overhead_pct and carry the
		// allocator's work per cycle without the tracer's own memory.
		var mem memMeter
		var plain, traced struct{ cycles, wall float64 }
		var gets, hits int64
		tr := newTracer()
		block := total / (2 * traceBlocks)
		for b := 0; b < traceBlocks; b++ {
			mem.start()
			stamps, err := tn.region(block, nil)
			if err != nil {
				return nil, err
			}
			mem.stop()
			plain.cycles += float64(len(stamps) - 1)
			plain.wall += float64(stamps[len(stamps)-1]) / 1e9

			gets0, hits0 := tn.sess.ArenaStats()
			if stamps, err = tn.region(block, tr); err != nil {
				return nil, err
			}
			gets1, hits1 := tn.sess.ArenaStats()
			gets, hits = gets+gets1-gets0, hits+hits1-hits0
			traced.cycles += float64(len(stamps) - 1)
			traced.wall += float64(stamps[len(stamps)-1]) / 1e9
		}
		mem.report(out, int64(plain.cycles))
		untraced := plain.cycles / plain.wall
		out.values["trace.overhead_pct"] = 100 * (untraced - traced.cycles/traced.wall) / untraced
		trainLayers(out, spec, cfg, tn, tr, traced.wall, traced.cycles)
		out.values["graph.arena_hit_rate"] = ratio(float64(hits), float64(gets))
		if err := tr.write(o.outDir, spec.name, o.hdr); err != nil {
			return nil, err
		}
	}

	// Output checks, untimed.
	out.attempted = tn.cycles * callsPerCycle
	out.failed = tn.failed
	out.check("losses finite", tn.failed == 0)
	out.check("agent.Updates equals cycles run", int64(tn.agent.Updates()) == tn.cycles)
	wantMem := min(tn.cycles*stepsPerCycle*trainEnvs, int64(cfg.Memory.Capacity))
	out.check("MemorySize equals min(capacity, inserted)", int64(tn.agent.MemorySize()) == wantMem)
	out.values["memories.size_final"] = float64(tn.agent.MemorySize())
	agree, err := twinAgrees(spec.config, tn.agent, tn.vec.Envs[0], probes(spec, o.seed))
	if err != nil {
		return nil, fmt.Errorf("%s: twin oracle: %w", spec.name, err)
	}
	out.check("define-by-run twin agrees on Q values within 1e-9", agree)
	return out, nil
}

// trainLayers derives the per-layer metrics of a traced region.
func trainLayers(out *outcome, spec trainSpec, cfg agents.DQNConfig, tn *trainer, tr *tracer, wall, cycles float64) {
	v := out.values
	envS := tr.seconds(kEnvStates) + tr.seconds(kEnvStep)
	v["envs.frames_per_s"] = cycles * stepsPerCycle * trainEnvs * float64(spec.frameSkip) / wall
	v["envs.step_share"] = envS / wall
	v["envs.step_us"] = ratio(envS*1e6, float64(tr.count[kEnvStep]))
	v["agents.act_share"] = tr.seconds(kAct) / wall
	v["agents.act_us"] = tr.usPerCall(kAct)
	v["agents.observe_share"] = tr.seconds(kObserve) / wall
	v["agents.observe_us"] = tr.usPerCall(kObserve)
	v["agents.update_share"] = tr.seconds(kUpdate) / wall
	v["driver.assemble_share"] = tr.seconds(kAssemble) / wall
	v["driver.unaccounted_share"] = 1 - (envS+tr.seconds(kAct)+tr.seconds(kObserve)+
		tr.seconds(kUpdate)+tr.seconds(kAssemble))/wall

	v["agents.update_ms_p50"] = median(tn.updMs)
	v["graph.runs_per_cycle"] = median(tn.runsCyc)
	v["graph.nodes_per_update"] = median(tn.nodesUpd)
	v["graph.ns_per_node_update"] = ratio(v["agents.update_ms_p50"]*1e6, v["graph.nodes_per_update"])

	mflop := updateMFLOP(cfg, tn.vec.Envs[0])
	v["tensor.update_mflop"] = mflop
	v["tensor.update_gflops"] = ratio(mflop/1e3, v["agents.update_ms_p50"]/1e3)
}

// trainConfig parses an embedded config far enough to read sizes from it.
func trainConfig(config string) (agents.DQNConfig, error) {
	var cfg agents.DQNConfig
	raw, err := configFS.ReadFile("workloads/" + config)
	if err != nil {
		return cfg, err
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return cfg, fmt.Errorf("parsing %s: %w", config, err)
	}
	return cfg, nil
}

// updateMFLOP is the arithmetic one Update asks of the tensor kernels,
// computed from the layer shapes, not measured: three forward passes
// (online on s, online and target on s') and one backward pass through
// online(s), costed at two forwards, all at the update batch size. A
// multiply-add counts as two operations.
func updateMFLOP(cfg agents.DQNConfig, env envs.Env) float64 {
	shape := env.StateSpace().Shape()
	flops := 0.0
	features := 1
	for _, d := range shape {
		features *= d
	}
	h, w, c := 0, 0, 0
	if len(shape) == 3 {
		h, w, c = shape[0], shape[1], shape[2]
	}
	dense := func(units int) {
		flops += 2 * float64(features) * float64(units)
		features = units
	}
	for _, l := range cfg.Network {
		switch l.Type {
		case "dense":
			dense(l.Units)
		case "conv2d":
			oh, ow := (h-l.Kernel)/l.Stride+1, (w-l.Kernel)/l.Stride+1
			if l.Padding == "same" {
				oh, ow = (h+l.Stride-1)/l.Stride, (w+l.Stride-1)/l.Stride
			}
			flops += 2 * float64(l.Kernel*l.Kernel*c*l.Filters) * float64(oh*ow)
			h, w, c = oh, ow, l.Filters
			features = h * w * c
		}
	}
	actions := env.ActionSpace().N
	if cfg.Dueling {
		hidden := cfg.DuelingHidden
		if hidden <= 0 {
			hidden = 64
		}
		flops += 2 * float64(features) * float64(hidden) * 2
		flops += 2 * float64(hidden) * float64(1+actions)
	} else {
		dense(actions)
	}
	return 5 * float64(cfg.BatchSize) * flops / 1e6
}
