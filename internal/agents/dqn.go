package agents

import (
	"fmt"
	"io"

	"rlgraph/internal/backend"
	"rlgraph/internal/component"
	"rlgraph/internal/components/losses"
	"rlgraph/internal/components/memories"
	"rlgraph/internal/components/misc"
	"rlgraph/internal/components/nn"
	"rlgraph/internal/components/optimizers"
	"rlgraph/internal/components/policy"
	"rlgraph/internal/exec"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// DQN is the DQN-family agent: vanilla to dueling double DQN with uniform or
// prioritized replay and n-step targets — the architecture of the paper's
// build-overhead workload ("dueling DQN with prioritized replay, 43
// components") and, with the apex preset, of the Ape-X experiments.
//
// Root API methods (compiled into one session call each on the static
// backend):
//
//	get_actions(states)            -> actions          (ε-greedy)
//	get_actions_greedy(states)     -> actions
//	get_q_values(states)           -> q
//	observe(s,a,r,ns,t[,prio])     -> memory size
//	update_from_memory(batch)      -> loss, gradnorm
//	update_external(s,a,r,ns,t,w)  -> loss, tdErrors   (Ape-X learner path)
//	compute_priorities(s,a,r,ns,t) -> |td|             (Ape-X worker path)
//	sync_target()                  -> count
type DQN struct {
	cfg         DQNConfig
	stateSpace  spaces.Space
	actionSpace *spaces.IntBox

	root        *component.Component
	online      *policy.Policy
	target      *policy.Policy
	exploration *policy.EpsilonGreedy
	loss        *losses.DQNLoss
	opt         *optimizers.Optimizer
	sync        *misc.Synchronizer
	prioritized bool
	uniformMem  *memories.RingReplay
	prioMem     *memories.PrioritizedReplay

	executor exec.Executor
	updates  int
}

// NewDQN constructs (but does not build) a DQN agent.
func NewDQN(cfg DQNConfig, stateSpace spaces.Space, actionSpace *spaces.IntBox) (*DQN, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Network) == 0 {
		return nil, fmt.Errorf("agents: dqn needs a network spec")
	}
	a := &DQN{cfg: cfg, stateSpace: stateSpace, actionSpace: actionSpace}
	a.root = component.New("dqn-agent")

	// Networks: shared trunk spec + output head; target uses the same seed
	// so both start with identical weights.
	specs := a.headedSpecs()
	onlineNet, err := nn.NewNetwork("network", specs, cfg.Seed)
	if err != nil {
		return nil, err
	}
	targetNet, err := nn.NewNetwork("target-network", specs, cfg.Seed)
	if err != nil {
		return nil, err
	}
	a.exploration = policy.NewEpsilonGreedy("exploration",
		cfg.Exploration.Initial, cfg.Exploration.Final, cfg.Exploration.DecaySteps, cfg.Seed+101)
	a.online = policy.New("policy", onlineNet.Component, actionSpace, a.exploration)
	a.target = policy.New("target-policy", targetNet.Component, actionSpace, nil)
	a.root.AddSub(a.online.Component)
	a.root.AddSub(a.target.Component)

	a.prioritized = cfg.Memory.Type == "prioritized"
	switch cfg.Memory.Type {
	case "replay":
		a.uniformMem = memories.NewRingReplay("memory", cfg.Memory.Capacity, 5, cfg.Seed+202)
		a.root.AddSub(a.uniformMem.Component)
	case "prioritized":
		a.prioMem = memories.NewPrioritizedReplay("memory", cfg.Memory.Capacity, 5,
			cfg.Memory.Alpha, cfg.Memory.Beta, cfg.Seed+202)
		a.root.AddSub(a.prioMem.Component)
	default:
		return nil, fmt.Errorf("agents: unknown memory type %q", cfg.Memory.Type)
	}

	a.loss = losses.NewDQNLoss("loss", losses.DQNLossConfig{
		Gamma: cfg.Gamma, NStep: cfg.NStep, DoubleQ: cfg.DoubleQ, Huber: cfg.Huber,
	})
	a.root.AddSub(a.loss.Component)

	a.opt, err = optimizers.New("optimizer", cfg.Optimizer, func() []*vars.Variable {
		return a.online.TrainableVariables()
	})
	if err != nil {
		return nil, err
	}
	a.root.AddSub(a.opt.Component)

	a.sync = misc.NewSynchronizer("target-sync",
		func() *vars.Store { return a.online.AllVariables() },
		func() *vars.Store { return a.target.AllVariables() })
	a.root.AddSub(a.sync.Component)

	a.defineAPIs()
	return a, nil
}

// headedSpecs appends the output head to the configured trunk.
func (a *DQN) headedSpecs() []nn.LayerSpec {
	specs := append([]nn.LayerSpec(nil), a.cfg.Network...)
	if a.cfg.Dueling {
		specs = append(specs, nn.LayerSpec{Type: "dueling", Units: a.cfg.DuelingHidden, Actions: a.actionSpace.N})
	} else {
		specs = append(specs, nn.LayerSpec{Type: "dense", Units: a.actionSpace.N})
	}
	return specs
}

func (a *DQN) defineAPIs() {
	root := a.root
	root.DefineAPI("get_actions", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return a.online.Call(ctx, "act", in...)
	}).NoGrad = true
	root.DefineAPI("get_actions_greedy", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return a.online.Call(ctx, "act_greedy", in...)
	}).NoGrad = true
	root.DefineAPI("get_q_values", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return a.online.Call(ctx, "q_values", in...)
	}).NoGrad = true

	// observe inserts transition batches; the prioritized variant also
	// accepts explicit priorities (Ape-X worker-side prioritization).
	root.DefineAPI("observe", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		if a.prioritized {
			return a.prioMem.Call(ctx, "insert", in...)
		}
		return a.uniformMem.Call(ctx, "insert", in...)
	})
	if a.prioritized {
		root.DefineAPI("observe_with_priorities", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
			return a.prioMem.Call(ctx, "insert_with_priorities", in...)
		})
	}

	// update_from_memory: sample → loss → optimizer step (→ priority
	// update), batched into a single executor call (paper Fig. 3).
	root.DefineAPI("update_from_memory", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		var s, act, r, ns, t, idx, w *component.Rec
		if a.prioritized {
			sample := a.prioMem.Call(ctx, "sample", in...)
			s, act, r, ns, t, idx, w = sample[0], sample[1], sample[2], sample[3], sample[4], sample[5], sample[6]
		} else {
			sample := a.uniformMem.Call(ctx, "sample", in...)
			s, act, r, ns, t = sample[0], sample[1], sample[2], sample[3], sample[4]
			w = a.onesLike(ctx, r)
		}
		lossRecs := a.lossFrom(ctx, s, act, r, ns, t, w)
		lossRec, td := lossRecs[0], lossRecs[1]
		norm := a.opt.Call(ctx, "step", lossRec)
		outs := []*component.Rec{lossRec, norm[0]}
		if a.prioritized {
			upd := a.prioMem.Call(ctx, "update", idx, td)
			outs = append(outs, upd[0])
		}
		return outs
	})

	// update_external: learner update from an externally sampled batch
	// (distributed replay shards); returns TD errors for priority updates.
	root.DefineAPI("update_external", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		lossRecs := a.lossFrom(ctx, in[0], in[1], in[2], in[3], in[4], in[5])
		norm := a.opt.Call(ctx, "step", lossRecs[0])
		return []*component.Rec{lossRecs[0], lossRecs[1], norm[0]}
	})

	// update_multigpu: the synchronous multi-GPU device strategy (paper
	// §4.1): the graph is expanded with one loss-tower replica per GPU,
	// the input batch splits through generic shard ops, and the mean tower
	// loss's gradient equals the averaged tower gradients (weights are
	// shared), applied once by the optimizer. Tower operations carry
	// per-GPU device tags, visible in rlgraph-viz.
	if a.cfg.NumGPUs > 1 {
		k := a.cfg.NumGPUs
		root.DefineAPI("update_multigpu", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
			towerLosses := make([]*component.Rec, 0, k)
			towerTDs := make([]*component.Rec, 0, k)
			for i := 0; i < k; i++ {
				if ctx.Ops != nil {
					ctx.Ops.SetDefaultDevice(fmt.Sprintf("gpu%d", i))
				}
				shard := make([]*component.Rec, len(in))
				for j, r := range in {
					shard[j] = root.GraphFn(ctx, "shard", 1, shardFn(i, k), r)[0]
				}
				lossRecs := a.lossFrom(ctx, shard[0], shard[1], shard[2], shard[3], shard[4], shard[5])
				towerLosses = append(towerLosses, lossRecs[0])
				towerTDs = append(towerTDs, lossRecs[1])
			}
			if ctx.Ops != nil {
				ctx.Ops.SetDefaultDevice("")
			}
			combined := root.GraphFn(ctx, "combine_towers", 2, combineTowersFn(k),
				append(towerLosses, towerTDs...)...)
			norm := a.opt.Call(ctx, "step", combined[0])
			return []*component.Rec{combined[0], combined[1], norm[0]}
		})
	}

	// compute_priorities: forward-only TD magnitude (worker-side
	// prioritization in Ape-X).
	root.DefineAPI("compute_priorities", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		w := a.onesLike(ctx, in[2])
		lossRecs := a.lossFrom(ctx, in[0], in[1], in[2], in[3], in[4], w)
		return []*component.Rec{lossRecs[1]}
	}).NoGrad = true

	root.DefineAPI("sync_target", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return a.sync.Call(ctx, "sync", in...)
	})
}

// lossFrom wires Q computations into the loss component.
func (a *DQN) lossFrom(ctx *component.Ctx, s, act, r, ns, t, w *component.Rec) []*component.Rec {
	q := a.online.Call(ctx, "q_values", s)
	qNextTarget := a.target.Call(ctx, "q_values", ns)
	qNextOnline := a.online.Call(ctx, "q_values", ns)
	return a.loss.Call(ctx, "loss", q[0], act, r, t, qNextTarget[0], qNextOnline[0], w)
}

// shardFn slices tower i's batch shard.
func shardFn(i, k int) component.GraphFn {
	return func(ops backend.Ops, refs []backend.Ref) []backend.Ref {
		return []backend.Ref{ops.ShardRows(refs[0], i, k)}
	}
}

// combineTowersFn averages k tower losses and concatenates their TD errors.
func combineTowersFn(k int) component.GraphFn {
	return func(ops backend.Ops, refs []backend.Ref) []backend.Ref {
		loss := refs[0]
		for i := 1; i < k; i++ {
			loss = ops.Add(loss, refs[i])
		}
		loss = ops.Scale(loss, 1/float64(k))
		td := ops.Concat(0, refs[k:2*k]...)
		return []backend.Ref{loss, td}
	}
}

// onesLike produces a ones vector shaped like ref (uniform importance
// weights).
func (a *DQN) onesLike(ctx *component.Ctx, ref *component.Rec) *component.Rec {
	out := a.root.GraphFn(ctx, "ones_like", 1, func(ops backend.Ops, refs []backend.Ref) []backend.Ref {
		return []backend.Ref{ops.AddScalar(ops.Scale(refs[0], 0), 1)}
	}, ref)
	return out[0]
}

// InputSpaces declares the build spaces for every root API from the state
// and action spaces — the only shape information the user provides.
func (a *DQN) InputSpaces() exec.InputSpaces {
	sB := a.stateSpace.WithBatchRank()
	aB := spaces.NewIntBox(a.actionSpace.N).WithBatchRank()
	rB := spaces.NewFloatBox().WithBatchRank()
	tB := spaces.NewBoolBox().WithBatchRank()
	wB := spaces.NewFloatBox().WithBatchRank()
	scalar := spaces.NewFloatBox()

	in := exec.InputSpaces{
		"get_actions":        {sB},
		"get_actions_greedy": {sB},
		"get_q_values":       {sB},
		"observe":            {sB, aB, rB, sB, tB},
		"update_from_memory": {scalar},
		"update_external":    {sB, aB, rB, sB, tB, wB},
		"compute_priorities": {sB, aB, rB, sB, tB},
		"sync_target":        {},
	}
	if a.prioritized {
		in["observe_with_priorities"] = []spaces.Space{sB, aB, rB, sB, tB, wB}
	}
	if a.cfg.NumGPUs > 1 {
		in["update_multigpu"] = []spaces.Space{sB, aB, rB, sB, tB, wB}
	}
	return in
}

// UpdateMultiGPU applies one synchronous multi-tower update (requires
// NumGPUs > 1 in the config), returning the mean tower loss and the
// concatenated TD errors.
func (a *DQN) UpdateMultiGPU(s, act, r, ns, t, w *tensor.Tensor) (float64, *tensor.Tensor, error) {
	if a.cfg.NumGPUs <= 1 {
		return 0, nil, fmt.Errorf("agents: update_multigpu needs num_gpus > 1")
	}
	outs, err := a.executor.Execute("update_multigpu", s, act, r, ns, t, w)
	if err != nil {
		return 0, nil, err
	}
	a.updates++
	return outs[0].Item(), outs[1], nil
}

// Build assembles and compiles the agent's component graph.
func (a *DQN) Build() (*exec.BuildReport, error) {
	ex, err := newExecutor(a.cfg.Backend, a.root)
	if err != nil {
		return nil, err
	}
	a.executor = ex
	return ex.Build(a.InputSpaces())
}

// Executor exposes the graph executor (benchmarks, inspection).
func (a *DQN) Executor() exec.Executor { return a.executor }

// StateSpace returns the agent's observation space (the element space of
// one get_actions row — the serving layer validates single-observation
// requests against it before batching them).
func (a *DQN) StateSpace() spaces.Space { return a.stateSpace }

// ActionSpace returns the agent's discrete action space.
func (a *DQN) ActionSpace() *spaces.IntBox { return a.actionSpace }

// Root exposes the root component.
func (a *DQN) Root() *component.Component { return a.root }

// Exploration exposes the exploration component (worker-specific epsilons).
func (a *DQN) Exploration() *policy.EpsilonGreedy { return a.exploration }

// MemorySize returns the number of stored transitions.
func (a *DQN) MemorySize() int {
	if a.prioritized {
		return a.prioMem.Size()
	}
	return a.uniformMem.Size()
}

// GetActions maps states to actions; explore=false is greedy.
func (a *DQN) GetActions(states *tensor.Tensor, explore bool) (*tensor.Tensor, error) {
	api := "get_actions"
	if !explore {
		api = "get_actions_greedy"
	}
	outs, err := a.executor.Execute(api, states)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// GetQValues returns online-network Q values.
func (a *DQN) GetQValues(states *tensor.Tensor) (*tensor.Tensor, error) {
	outs, err := a.executor.Execute("get_q_values", states)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Observe inserts a batch of transitions.
func (a *DQN) Observe(s, act, r, ns, t *tensor.Tensor) error {
	_, err := a.executor.Execute("observe", s, act, r, ns, t)
	return err
}

// Update learns one batch from memory, syncing the target network on the
// configured cadence, and returns the loss.
func (a *DQN) Update() (float64, error) {
	outs, err := a.executor.Execute("update_from_memory", tensor.Scalar(float64(a.cfg.BatchSize)))
	if err != nil {
		return 0, err
	}
	a.updates++
	if a.cfg.TargetSyncEvery > 0 && a.updates%a.cfg.TargetSyncEvery == 0 {
		if err := a.SyncTarget(); err != nil {
			return 0, err
		}
	}
	return outs[0].Item(), nil
}

// UpdateExternal learns from an externally sampled batch, returning the loss
// and per-item TD errors (for distributed priority updates).
func (a *DQN) UpdateExternal(s, act, r, ns, t, w *tensor.Tensor) (float64, *tensor.Tensor, error) {
	outs, err := a.executor.Execute("update_external", s, act, r, ns, t, w)
	if err != nil {
		return 0, nil, err
	}
	a.updates++
	if a.cfg.TargetSyncEvery > 0 && a.updates%a.cfg.TargetSyncEvery == 0 {
		if err := a.SyncTarget(); err != nil {
			return 0, nil, err
		}
	}
	return outs[0].Item(), outs[1], nil
}

// ComputePriorities returns |TD| for a batch (worker-side prioritization).
func (a *DQN) ComputePriorities(s, act, r, ns, t *tensor.Tensor) (*tensor.Tensor, error) {
	outs, err := a.executor.Execute("compute_priorities", s, act, r, ns, t)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// SyncTarget copies online weights into the target network.
func (a *DQN) SyncTarget() error {
	_, err := a.executor.Execute("sync_target")
	return err
}

// Updates returns the number of applied updates.
func (a *DQN) Updates() int { return a.updates }

// NumGPUs returns the configured synchronous-GPU tower count.
func (a *DQN) NumGPUs() int { return a.cfg.NumGPUs }

// GetWeights snapshots the online network's trainable variables.
func (a *DQN) GetWeights() map[string]*tensor.Tensor {
	return trainableWeights(a.online.AllVariables())
}

// SetWeights installs an online-network snapshot.
func (a *DQN) SetWeights(w map[string]*tensor.Tensor) error {
	return a.online.AllVariables().SetWeights(w)
}

// ExportModel writes the online network weights as JSON.
func (a *DQN) ExportModel(w io.Writer) error { return exportStore(a.online.AllVariables(), w) }
