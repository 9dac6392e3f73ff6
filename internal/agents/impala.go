package agents

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"rlgraph/internal/component"
	"rlgraph/internal/components/losses"
	"rlgraph/internal/components/nn"
	"rlgraph/internal/components/optimizers"
	"rlgraph/internal/exec"
	"rlgraph/internal/graph"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// IMPALA is the importance-weighted actor-learner agent (Espeholt et al.):
// actors sample actions from a (possibly stale) policy, record behavior
// log-probabilities, and a learner applies V-trace-corrected actor-critic
// updates over queued rollouts. The same agent object serves both roles —
// actors call act_sample, the learner calls update — mirroring how RLgraph
// instantiates one component graph per worker (paper §5.1).
//
// Root API methods:
//
//	act_sample(states)   -> actions, behaviorLogp
//	get_logits(states)   -> logits
//	get_values(states)   -> values
//	update(states, actions, rewards, discounts, behaviorLogp, bootstrapStates)
//	    -> loss, pgLoss, valueLoss, entropy, gradnorm
type IMPALA struct {
	cfg         IMPALAConfig
	stateSpace  spaces.Space
	actionSpace *spaces.IntBox

	root       *component.Component
	trunk      *nn.NeuralNetwork
	logitsHead *nn.Dense
	valueHead  *nn.Dense
	loss       *losses.VTraceLoss
	opt        *optimizers.Optimizer
	rng        *rand.Rand

	executor exec.Executor
	updates  int
}

// NewIMPALA constructs (but does not build) an IMPALA agent.
func NewIMPALA(cfg IMPALAConfig, stateSpace spaces.Space, actionSpace *spaces.IntBox) (*IMPALA, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Network) == 0 {
		return nil, fmt.Errorf("agents: impala needs a network spec")
	}
	a := &IMPALA{
		cfg: cfg, stateSpace: stateSpace, actionSpace: actionSpace,
		rng: rand.New(rand.NewSource(cfg.Seed + 307)),
	}
	a.root = component.New("impala-agent")

	var err error
	a.trunk, err = nn.NewNetwork("trunk", cfg.Network, cfg.Seed)
	if err != nil {
		return nil, err
	}
	a.logitsHead = nn.NewDense("logits-head", actionSpace.N, "", cfg.Seed+11)
	a.valueHead = nn.NewDense("value-head", 1, "", cfg.Seed+12)
	a.root.AddSub(a.trunk.Component)
	a.root.AddSub(a.logitsHead.Component)
	a.root.AddSub(a.valueHead.Component)

	a.loss = losses.NewVTraceLoss("vtrace-loss", losses.VTraceConfig{
		Gamma:        cfg.Gamma,
		ValueCoeff:   cfg.ValueCoeff,
		EntropyCoeff: cfg.EntropyCoeff,
		RolloutLen:   cfg.RolloutLen,
	})
	a.root.AddSub(a.loss.Component)

	a.opt, err = optimizers.New("optimizer", cfg.Optimizer, func() []*vars.Variable {
		s := vars.NewStore()
		for _, v := range a.trunk.TrainableVariables() {
			s.Add(v)
		}
		for _, v := range a.logitsHead.TrainableVariables() {
			s.Add(v)
		}
		for _, v := range a.valueHead.TrainableVariables() {
			s.Add(v)
		}
		return s.Trainable()
	})
	if err != nil {
		return nil, err
	}
	a.root.AddSub(a.opt.Component)

	a.defineAPIs()
	return a, nil
}

func (a *IMPALA) logitsOf(ctx *component.Ctx, states *component.Rec) *component.Rec {
	feat := a.trunk.Call(ctx, "call", states)
	return a.logitsHead.Call(ctx, "call", feat...)[0]
}

func (a *IMPALA) valuesOf(ctx *component.Ctx, states *component.Rec) *component.Rec {
	feat := a.trunk.Call(ctx, "call", states)
	v := a.valueHead.Call(ctx, "call", feat...)[0]
	// Squeeze [b,1] → [b].
	out := a.root.GraphFn(ctx, "squeeze_value", 1, func(g *graph.Graph, refs []*graph.Node) []*graph.Node {
		return []*graph.Node{graph.Reshape(g, refs[0], -1)}
	}, v)
	return out[0]
}

func (a *IMPALA) defineAPIs() {
	root := a.root

	root.DefineAPI("get_logits", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return []*component.Rec{a.logitsOf(ctx, in[0])}
	}).NoGrad = true
	root.DefineAPI("get_values", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return []*component.Rec{a.valuesOf(ctx, in[0])}
	}).NoGrad = true

	// act_sample draws from the categorical policy and reports the behavior
	// log-probability of the drawn action.
	root.DefineAPI("act_sample", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		logits := a.logitsOf(ctx, in[0])
		return root.GraphFn(ctx, "sample_actions", 2, a.sampleFn, logits)
	}).NoGrad = true

	// update applies one V-trace learning step over a time-major flattened
	// rollout batch.
	root.DefineAPI("update", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		states, actions, rewards, discounts, behaviorLogp, bootstrapStates :=
			in[0], in[1], in[2], in[3], in[4], in[5]
		logits := a.logitsOf(ctx, states)
		values := a.valuesOf(ctx, states)
		bootstrap := a.valuesOf(ctx, bootstrapStates)
		bootstrapStopped := root.GraphFn(ctx, "stop_bootstrap", 1,
			func(g *graph.Graph, refs []*graph.Node) []*graph.Node {
				return []*graph.Node{graph.StopGradient(g, refs[0])}
			}, bootstrap)
		lossRecs := a.loss.Call(ctx, "loss",
			logits, values, actions, rewards, discounts, behaviorLogp, bootstrapStopped[0])
		norm := a.opt.Call(ctx, "step", lossRecs[0])
		return append(lossRecs, norm[0])
	})
}

// sampleFn draws categorical actions from logits (host-side randomness) and
// returns selected-action log-probs.
func (a *IMPALA) sampleFn(g *graph.Graph, in []*graph.Node) []*graph.Node {
	return graph.StatefulMulti(g, "SampleActions", [][]int{{-1}, {-1}},
		func(ts []*tensor.Tensor) ([]*tensor.Tensor, error) {
			logits := ts[0]
			b := logits.Dim(0)
			n := logits.Dim(1)
			logp := tensor.LogSoftmax(logits)
			actions := tensor.New(b)
			selLogp := tensor.New(b)
			for i := 0; i < b; i++ {
				u := a.rng.Float64()
				cum := 0.0
				k := n - 1
				for j := 0; j < n; j++ {
					cum += math.Exp(logp.At(i, j))
					if u < cum {
						k = j
						break
					}
				}
				actions.Data()[i] = float64(k)
				selLogp.Data()[i] = logp.At(i, k)
			}
			return []*tensor.Tensor{actions, selLogp}, nil
		}, in...)
}

// InputSpaces declares build spaces for the root APIs.
func (a *IMPALA) InputSpaces() exec.InputSpaces {
	sB := a.stateSpace.WithBatchRank()
	aB := spaces.NewIntBox(a.actionSpace.N).WithBatchRank()
	fB := spaces.NewFloatBox().WithBatchRank()
	return exec.InputSpaces{
		"get_logits": {sB},
		"get_values": {sB},
		"act_sample": {sB},
		"update":     {sB, aB, fB, fB, fB, sB},
	}
}

// Build assembles and compiles the component graph.
func (a *IMPALA) Build() (*exec.BuildReport, error) {
	ex, err := exec.New(a.cfg.Backend, a.root)
	if err != nil {
		return nil, err
	}
	a.executor = ex
	return ex.Build(a.InputSpaces())
}

// Executor exposes the graph executor.
func (a *IMPALA) Executor() exec.Executor { return a.executor }

// StateSpace returns the agent's observation space.
func (a *IMPALA) StateSpace() spaces.Space { return a.stateSpace }

// ActionSpace returns the agent's discrete action space.
func (a *IMPALA) ActionSpace() *spaces.IntBox { return a.actionSpace }

// Root exposes the root component.
func (a *IMPALA) Root() *component.Component { return a.root }

// ActSample draws actions and behavior log-probs for a state batch.
func (a *IMPALA) ActSample(states *tensor.Tensor) (actions, logp *tensor.Tensor, err error) {
	outs, err := a.executor.Execute("act_sample", states)
	if err != nil {
		return nil, nil, err
	}
	return outs[0], outs[1], nil
}

// GetActions implements Agent; explore=true samples, explore=false is the
// mode of the policy (argmax of logits).
func (a *IMPALA) GetActions(states *tensor.Tensor, explore bool) (*tensor.Tensor, error) {
	if explore {
		acts, _, err := a.ActSample(states)
		return acts, err
	}
	outs, err := a.executor.Execute("get_logits", states)
	if err != nil {
		return nil, err
	}
	return tensor.ArgMaxAxis(outs[0], -1), nil
}

// Observe is a no-op: IMPALA is on-policy; rollouts flow through queues.
func (a *IMPALA) Observe(_, _, _, _, _ *tensor.Tensor) error { return nil }

// Update implements Agent for single-process use: it is not meaningful
// without a rollout, so it returns an error directing callers to
// UpdateRollout.
func (a *IMPALA) Update() (float64, error) {
	return 0, fmt.Errorf("agents: IMPALA updates take rollouts; use UpdateRollout")
}

// UpdateRollout applies one learning step to a time-major flattened rollout.
func (a *IMPALA) UpdateRollout(states, actions, rewards, discounts, behaviorLogp, bootstrapStates *tensor.Tensor) (float64, error) {
	outs, err := a.executor.Execute("update",
		states, actions, rewards, discounts, behaviorLogp, bootstrapStates)
	if err != nil {
		return 0, err
	}
	a.updates++
	return outs[0].Item(), nil
}

// RolloutLen returns the configured rollout length T.
func (a *IMPALA) RolloutLen() int { return a.cfg.RolloutLen }

// Gamma returns the configured discount.
func (a *IMPALA) Gamma() float64 { return a.cfg.Gamma }

// policyStore gathers the trainable policy variables.
func (a *IMPALA) policyStore() *vars.Store {
	s := vars.NewStore()
	for _, v := range a.trunk.AllVariables().All() {
		s.Add(v)
	}
	for _, v := range a.logitsHead.AllVariables().All() {
		s.Add(v)
	}
	for _, v := range a.valueHead.AllVariables().All() {
		s.Add(v)
	}
	return s
}

// GetWeights snapshots the policy variables.
func (a *IMPALA) GetWeights() map[string]*tensor.Tensor {
	return trainableWeights(a.policyStore())
}

// SetWeights installs a snapshot from an identically configured agent.
func (a *IMPALA) SetWeights(w map[string]*tensor.Tensor) error {
	return a.policyStore().SetWeights(w)
}

// ExportModel writes policy weights as JSON.
func (a *IMPALA) ExportModel(w io.Writer) error { return exportStore(a.policyStore(), w) }
