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

	"rlgraph/internal/backend"
	"rlgraph/internal/component"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// VarsProvider supplies the variables an optimizer updates. It is resolved
// at build time so optimizers can be wired before the policy's variables
// exist.
type VarsProvider func() []*vars.Variable

// Config selects and parameterizes an optimizer.
type Config struct {
	// Type is "sgd", "momentum", "rmsprop" or "adam".
	Type string `json:"type"`
	// LearningRate is the step size.
	LearningRate float64 `json:"learning_rate"`
	// Momentum applies to "momentum" (and as RMSProp's decay if set).
	Momentum float64 `json:"momentum,omitempty"`
	// Beta1/Beta2 are Adam's moment decays.
	Beta1 float64 `json:"beta1,omitempty"`
	Beta2 float64 `json:"beta2,omitempty"`
	// Decay is RMSProp's moving-average decay.
	Decay float64 `json:"decay,omitempty"`
	// Epsilon stabilizes divisions.
	Epsilon float64 `json:"epsilon,omitempty"`
	// MaxGradNorm enables global-norm gradient clipping when > 0.
	MaxGradNorm float64 `json:"max_grad_norm,omitempty"`
}

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

// Must is New, panicking on config errors.
func Must(name string, cfg Config, provider VarsProvider) *Optimizer {
	o, err := New(name, cfg, provider)
	if err != nil {
		panic(err)
	}
	return o
}

// rule validates cfg and translates it, with defaults, into the kernel's
// hyperparameters.
func (cfg Config) rule() (tensor.UpdateRule, error) {
	if cfg.LearningRate <= 0 {
		return tensor.UpdateRule{}, fmt.Errorf("optimizers: learning rate must be positive, got %g", cfg.LearningRate)
	}
	or := func(v, def float64) float64 {
		if v == 0 {
			return def
		}
		return v
	}
	r := tensor.UpdateRule{LR: cfg.LearningRate, Epsilon: or(cfg.Epsilon, 1e-8), MaxGradNorm: cfg.MaxGradNorm}
	switch cfg.Type {
	case "sgd":
		r.Kind = tensor.UpdateSGD
	case "momentum":
		r.Kind, r.Beta1 = tensor.UpdateMomentum, or(cfg.Momentum, 0.9)
	case "rmsprop":
		r.Kind, r.Beta2 = tensor.UpdateRMSProp, or(cfg.Decay, 0.99)
	case "adam":
		r.Kind, r.Beta1, r.Beta2 = tensor.UpdateAdam, or(cfg.Beta1, 0.9), or(cfg.Beta2, 0.999)
	default:
		return tensor.UpdateRule{}, fmt.Errorf("optimizers: unknown type %q", cfg.Type)
	}
	return r, nil
}

// stepFn computes gradients of the loss wrt the wired variables and emits
// one update per variable. The returned ref is the global gradient norm
// (before clipping), threaded through every update so that evaluating it
// forces them all.
func (o *Optimizer) stepFn(ops backend.Ops, in []backend.Ref) []backend.Ref {
	loss := in[0]
	vsl := o.provider()
	if len(vsl) == 0 {
		panic(fmt.Sprintf("optimizers: %q has no variables to optimize", o.Name()))
	}
	grads := ops.Gradients(loss, vsl)

	// Global norm: sqrt(Σ_v Σ g²).
	var sq backend.Ref
	for _, g := range grads {
		s := ops.Sum(ops.Square(g))
		if sq == nil {
			sq = s
		} else {
			sq = ops.Add(sq, s)
		}
	}
	norm := ops.Sqrt(sq)
	for i, v := range vsl {
		norm = o.applyUpdate(ops, v, grads[i], norm)
	}
	return []backend.Ref{norm}
}

// applyUpdate emits the update of v from gradient g, yielding norm.
func (o *Optimizer) applyUpdate(ops backend.Ops, v *vars.Variable, g, norm backend.Ref) backend.Ref {
	st := o.state[v]
	if st == nil {
		st = o.rule.NewState(v.Val.Shape()...)
		o.state[v] = st
	}
	return ops.ApplyUpdate(v, &o.rule, st, g, norm)
}

// Step returns the number of applied optimizer steps. A step updates every
// variable once, so all per-variable counts agree.
func (o *Optimizer) Step() int {
	for _, st := range o.state {
		return st.Steps
	}
	return 0
}
