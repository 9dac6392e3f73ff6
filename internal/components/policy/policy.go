// Package policy provides the Policy component — a network plus an action
// adapter plus exploration — the sub-graph built in the paper's Listing 1.
package policy

import (
	"math/rand"

	"rlgraph/internal/component"
	"rlgraph/internal/graph"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// Policy wires a network component (exposing "call" and producing Q-values
// or logits per action) with greedy and exploratory action selection.
//
// API methods:
//
//	q_values(state)   -> q [b, actions]
//	act_greedy(state) -> action [b]
//	act(state)        -> action [b]   // epsilon-greedy with decay
type Policy struct {
	*component.Component

	network     *component.Component
	exploration *EpsilonGreedy
	numActions  int
}

// New returns a policy over the given network for a discrete action space.
// The network's "call" API must produce one value per action (append a
// dense or dueling head sized to the action space when composing it).
// exploration may be nil for a purely greedy policy.
func New(name string, network *component.Component, actionSpace *spaces.IntBox, exploration *EpsilonGreedy) *Policy {
	p := &Policy{
		Component:   component.New(name),
		network:     network,
		exploration: exploration,
		numActions:  actionSpace.N,
	}
	p.AddSub(network)
	if exploration != nil {
		p.AddSub(exploration.Component)
	}

	p.DefineAPI("q_values", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return p.network.Call(ctx, "call", in...)
	})
	p.DefineAPI("act_greedy", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		q := p.Call(ctx, "q_values", in...)
		return p.GraphFn(ctx, "argmax", 1, func(g *graph.Graph, refs []*graph.Node) []*graph.Node {
			return []*graph.Node{graph.ArgMaxAxis(g, refs[0], -1)}
		}, q...)
	}).NoGrad = true
	p.DefineAPI("act", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		q := p.Call(ctx, "q_values", in...)
		if p.exploration == nil {
			return p.GraphFn(ctx, "argmax_noexp", 1, func(g *graph.Graph, refs []*graph.Node) []*graph.Node {
				return []*graph.Node{graph.ArgMaxAxis(g, refs[0], -1)}
			}, q...)
		}
		return p.exploration.Call(ctx, "select", q...)
	}).NoGrad = true
	return p
}

// TrainableVariables lists the policy's trainable variables (for optimizer
// wiring and weight sync).
func (p *Policy) TrainableVariables() []*vars.Variable {
	return p.Component.TrainableVariables()
}

// EpsilonGreedy selects argmax actions with probability 1-ε and uniform
// random actions otherwise, with ε annealed linearly over decaySteps
// timesteps — the standard DQN exploration heuristic, as a first-class,
// individually testable component.
type EpsilonGreedy struct {
	*component.Component

	initial, final float64
	decaySteps     int
	rng            *rand.Rand

	timestep int
}

// NewEpsilonGreedy returns an epsilon-greedy exploration component.
func NewEpsilonGreedy(name string, initial, final float64, decaySteps int, seed int64) *EpsilonGreedy {
	e := &EpsilonGreedy{
		Component: component.New(name),
		initial:   initial, final: final, decaySteps: decaySteps,
		rng: rand.New(rand.NewSource(seed)),
	}
	e.DefineAPI("select", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return e.GraphFn(ctx, "select", 1, e.selectFn, in...)
	}).NoGrad = true
	return e
}

// Epsilon returns the current annealed epsilon.
func (e *EpsilonGreedy) Epsilon() float64 {
	if e.timestep >= e.decaySteps {
		return e.final
	}
	frac := float64(e.timestep) / float64(e.decaySteps)
	return e.initial + (e.final-e.initial)*frac
}

// SetTimestep overrides the anneal position (for tests and weight-synced
// workers with worker-specific epsilons).
func (e *EpsilonGreedy) SetTimestep(t int) { e.timestep = t }

func (e *EpsilonGreedy) selectFn(g *graph.Graph, in []*graph.Node) []*graph.Node {
	out := graph.Stateful(g, "EpsGreedy", []int{-1}, func(ts []*tensor.Tensor) (*tensor.Tensor, error) {
		q := ts[0]
		batch := q.Dim(0)
		n := q.Dim(q.Rank() - 1)
		eps := e.Epsilon()
		actions := tensor.New(batch)
		am := tensor.ArgMaxAxis(q, -1)
		for i := 0; i < batch; i++ {
			if e.rng.Float64() < eps {
				actions.Data()[i] = float64(e.rng.Intn(n))
			} else {
				actions.Data()[i] = am.Data()[i]
			}
			e.timestep++
		}
		return actions, nil
	}, in...)
	return []*graph.Node{out}
}
