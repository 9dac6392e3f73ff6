// Package losses provides loss-function components: the (double/dueling,
// n-step, importance-weighted) DQN loss used by the DQN and Ape-X agents,
// and the V-trace actor-critic loss used by IMPALA.
package losses

import (
	"rlgraph/internal/component"
	"rlgraph/internal/graph"
)

// DQNLossConfig parameterizes the Q-learning loss.
type DQNLossConfig struct {
	// Gamma is the per-step discount.
	Gamma float64 `json:"gamma"`
	// NStep applies gamma^n for n-step returns (reward inputs must already
	// be n-step sums; 1 for plain one-step targets).
	NStep int `json:"n_step,omitempty"`
	// DoubleQ selects actions with the online network and evaluates them
	// with the target network (van Hasselt et al.).
	DoubleQ bool `json:"double_q,omitempty"`
	// Huber applies the Huber (quadratic/linear) element loss at delta=1.
	Huber bool `json:"huber,omitempty"`
}

// DQNLoss computes the TD loss.
//
// API method:
//
//	loss(q, actions, rewards, terminals, qNextTarget, qNextOnline, weights)
//	  -> loss (scalar), tdError [b]
//
// weights are importance-sampling weights (ones for uniform replay); the
// absolute TD errors feed priority updates.
type DQNLoss struct {
	*component.Component
	cfg DQNLossConfig
}

// NewDQNLoss returns the loss component.
func NewDQNLoss(name string, cfg DQNLossConfig) *DQNLoss {
	if cfg.NStep == 0 {
		cfg.NStep = 1
	}
	l := &DQNLoss{Component: component.New(name), cfg: cfg}
	l.DefineAPI("loss", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return l.GraphFn(ctx, "td_loss", 2, l.lossFn, in...)
	})
	return l
}

func (l *DQNLoss) lossFn(g *graph.Graph, in []*graph.Node) []*graph.Node {
	q, actions, rewards, terminals := in[0], in[1], in[2], in[3]
	qNextTarget, qNextOnline, weights := in[4], in[5], in[6]

	// Q(s,a) for the taken actions.
	qSelected := graph.TakeAlongLastAxis(g, q, actions)

	// Bootstrap value from the target network.
	var nextVal *graph.Node
	if l.cfg.DoubleQ {
		bestNext := graph.ArgMaxAxis(g, qNextOnline, -1)
		nextVal = graph.TakeAlongLastAxis(g, qNextTarget, bestNext)
	} else {
		nextVal = graph.MaxAxis(g, qNextTarget, -1, false)
	}
	// Mask terminals and stop gradients into the target.
	notDone := graph.OneMinus(g, terminals)
	gammaN := pow(l.cfg.Gamma, l.cfg.NStep)
	target := graph.Add(g, rewards, graph.Scale(g, graph.Mul(g, notDone, graph.StopGradient(g, nextVal)), gammaN))

	td := graph.Sub(g, qSelected, target)

	var perItem *graph.Node
	if l.cfg.Huber {
		absTD := graph.Abs(g, td)
		small := graph.LessEqual(g, absTD, graph.ConstScalar(g, 1))
		quad := graph.Scale(g, graph.Square(g, td), 0.5)
		lin := graph.AddScalar(g, absTD, -0.5)
		perItem = graph.Where(g, small, quad, lin)
	} else {
		perItem = graph.Scale(g, graph.Square(g, td), 0.5)
	}
	loss := graph.Mean(g, graph.Mul(g, perItem, weights))
	return []*graph.Node{loss, graph.Abs(g, td)}
}

func pow(x float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= x
	}
	return out
}
