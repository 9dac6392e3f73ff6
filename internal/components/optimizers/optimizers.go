// Package optimizers provides gradient-descent optimizer components. An
// optimizer's step API takes a scalar loss record, obtains gradients of the
// trainable variables it was wired to (paper Fig. 3: optimizer.step(loss,
// policy.variables())), and emits one fused update per variable — the
// analogue of the backend training ops (TF ApplyAdam) RLgraph's optimizers
// wrap: a stateful graph node under the static backend, an immediate call
// under define-by-run, both running tensor.UpdateRule.Apply in place.
package optimizers

import (
	"fmt"

	"rlgraph/internal/component"
	"rlgraph/internal/graph"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// VarsProvider supplies the variables an optimizer updates. It is resolved
// at build time so optimizers can be wired before the policy's variables
// exist.
type VarsProvider func() []*vars.Variable

// Config selects and parameterizes an optimizer.
type Config struct {
	// Type is "rmsprop" or "adam".
	Type string `json:"type"`
	// LearningRate is the step size.
	LearningRate float64 `json:"learning_rate"`
	// MaxGradNorm enables global-norm gradient clipping when > 0.
	MaxGradNorm float64 `json:"max_grad_norm,omitempty"`
}

// The fixed hyperparameters: RMSProp's moving-average decay, Adam's two
// moment decays, and the epsilon both add to stabilize their divisions.
const (
	rmspropDecay = 0.99
	adamBeta1    = 0.9
	adamBeta2    = 0.999
	epsilon      = 1e-8
)

// Optimizer is the shared component: the rule and its per-variable state
// live in tensor.UpdateRule / tensor.UpdateState.
type Optimizer struct {
	*component.Component

	rule     tensor.UpdateRule
	provider VarsProvider

	// state holds each optimized variable's slots and step count, created at
	// first build and shared by every API (and both backends' passes) that
	// steps this optimizer.
	state map[*vars.Variable]*tensor.UpdateState
}

// New returns an optimizer component from a config.
func New(name string, cfg Config, provider VarsProvider) (*Optimizer, error) {
	rule, err := cfg.rule()
	if err != nil {
		return nil, err
	}
	o := &Optimizer{
		Component: component.New(name),
		rule:      rule,
		provider:  provider,
		state:     make(map[*vars.Variable]*tensor.UpdateState),
	}
	o.DefineAPI("step", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return o.GraphFn(ctx, "step", 1, o.stepFn, in...)
	})
	return o, nil
}

// rule validates cfg and translates it into the kernel's hyperparameters.
func (cfg Config) rule() (tensor.UpdateRule, error) {
	if cfg.LearningRate <= 0 {
		return tensor.UpdateRule{}, fmt.Errorf("optimizers: learning rate must be positive, got %g", cfg.LearningRate)
	}
	r := tensor.UpdateRule{LR: cfg.LearningRate, Epsilon: epsilon, MaxGradNorm: cfg.MaxGradNorm}
	switch cfg.Type {
	case "rmsprop":
		r.Kind, r.Beta2 = tensor.UpdateRMSProp, rmspropDecay
	case "adam":
		r.Kind, r.Beta1, r.Beta2 = tensor.UpdateAdam, adamBeta1, adamBeta2
	default:
		return tensor.UpdateRule{}, fmt.Errorf("optimizers: unknown type %q", cfg.Type)
	}
	return r, nil
}

// stepFn computes gradients of the loss wrt the wired variables and emits
// one update per variable. The returned node is the global gradient norm
// (before clipping), threaded through every update so that evaluating it
// forces them all.
func (o *Optimizer) stepFn(g *graph.Graph, in []*graph.Node) []*graph.Node {
	loss := in[0]
	vsl := o.provider()
	if len(vsl) == 0 {
		panic(fmt.Sprintf("optimizers: %q has no variables to optimize", o.Name()))
	}
	reads := make([]*graph.Node, len(vsl))
	for i, v := range vsl {
		reads[i] = graph.VarRead(g, v)
	}
	grads := graph.Gradients(g, loss, reads)

	// Global norm: sqrt(Σ_v Σ grad²).
	var sq *graph.Node
	for _, grad := range grads {
		s := graph.Sum(g, graph.Square(g, grad))
		if sq == nil {
			sq = s
		} else {
			sq = graph.Add(g, sq, s)
		}
	}
	norm := graph.Sqrt(g, sq)
	for i, v := range vsl {
		norm = o.applyUpdate(g, v, grads[i], norm)
	}
	return []*graph.Node{norm}
}

// applyUpdate emits the update of v from gradient grad, yielding norm.
func (o *Optimizer) applyUpdate(g *graph.Graph, v *vars.Variable, grad, norm *graph.Node) *graph.Node {
	st := o.state[v]
	if st == nil {
		st = o.rule.NewState(v.Val.Shape()...)
		o.state[v] = st
	}
	return graph.ApplyUpdate(g, v, &o.rule, st, grad, norm)
}
