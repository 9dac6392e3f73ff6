package losses

import (
	"math"

	"rlgraph/internal/component"
	"rlgraph/internal/graph"
	"rlgraph/internal/tensor"
)

// VTraceConfig parameterizes the IMPALA loss (Espeholt et al. 2018).
type VTraceConfig struct {
	// Gamma is the discount.
	Gamma float64 `json:"gamma"`
	// RhoClip and CClip bound the importance ratios (ρ̄ and c̄; 1.0 each in
	// the paper).
	RhoClip float64 `json:"rho_clip,omitempty"`
	CClip   float64 `json:"c_clip,omitempty"`
	// ValueCoeff and EntropyCoeff weight the baseline and entropy terms.
	ValueCoeff   float64 `json:"value_coeff,omitempty"`
	EntropyCoeff float64 `json:"entropy_coeff,omitempty"`
	// RolloutLen T is the time length of each rollout; inputs are time-major
	// [T*B] flattened.
	RolloutLen int `json:"rollout_len"`
}

// VTraceLoss computes the IMPALA actor-critic loss with V-trace off-policy
// corrections. The v-trace targets are computed by a host-side backward scan
// (they are constants wrt the parameters, exactly as in the reference
// implementation, which stops gradients through vs); policy gradients flow
// through the log-probabilities and baseline gradients through the values.
//
// API method:
//
//	loss(logits [T*B,A], values [T*B], actions [T*B], rewards [T*B],
//	     discounts [T*B], behaviorLogp [T*B], bootstrap [B])
//	  -> loss (scalar), pgLoss, valueLoss, entropy (scalars)
type VTraceLoss struct {
	*component.Component
	cfg VTraceConfig
}

// NewVTraceLoss returns the loss component.
func NewVTraceLoss(name string, cfg VTraceConfig) *VTraceLoss {
	if cfg.RhoClip == 0 {
		cfg.RhoClip = 1
	}
	if cfg.CClip == 0 {
		cfg.CClip = 1
	}
	if cfg.ValueCoeff == 0 {
		cfg.ValueCoeff = 0.5
	}
	l := &VTraceLoss{Component: component.New(name), cfg: cfg}
	l.DefineAPI("loss", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return l.GraphFn(ctx, "vtrace_loss", 4, l.lossFn, in...)
	})
	return l
}

func (l *VTraceLoss) lossFn(g *graph.Graph, in []*graph.Node) []*graph.Node {
	logits, values, actions := in[0], in[1], in[2]
	rewards, discounts, behaviorLogp, bootstrap := in[3], in[4], in[5], in[6]

	logp := graph.LogSoftmax(g, logits)
	actionLogp := graph.TakeAlongLastAxis(g, logp, actions)

	// V-trace targets: host-side backward scan over detached inputs.
	vsAndAdv := graph.StatefulMulti(g, "VTrace", [][]int{{-1}, {-1}},
		func(ts []*tensor.Tensor) ([]*tensor.Tensor, error) {
			return l.vtraceScan(ts[0], ts[1], ts[2], ts[3], ts[4], ts[5])
		},
		graph.StopGradient(g, actionLogp), behaviorLogp, graph.StopGradient(g, values),
		rewards, discounts, bootstrap)
	vs, pgAdv := vsAndAdv[0], vsAndAdv[1]

	// Policy gradient: -Σ ρ·logπ(a|s)·adv (adv constant).
	pgLoss := graph.Neg(g, graph.Sum(g, graph.Mul(g, actionLogp, pgAdv)))
	// Baseline: ½Σ (vs - V)².
	valueLoss := graph.Scale(g, graph.Sum(g, graph.Square(g, graph.Sub(g, vs, values))), 0.5)
	// Entropy bonus: -Σ Σ_a π logπ.
	probs := graph.Softmax(g, logits)
	entropy := graph.Neg(g, graph.Sum(g, graph.Mul(g, probs, logp)))

	loss := graph.Add(g, pgLoss,
		graph.Sub(g, graph.Scale(g, valueLoss, l.cfg.ValueCoeff),
			graph.Scale(g, entropy, l.cfg.EntropyCoeff)))
	return []*graph.Node{loss, pgLoss, valueLoss, entropy}
}

// vtraceScan computes vs and clipped-ρ policy-gradient advantages by the
// standard backward recursion. Inputs are time-major [T*B] flat tensors.
func (l *VTraceLoss) vtraceScan(targetLogp, behaviorLogp, values, rewards, discounts, bootstrap *tensor.Tensor) ([]*tensor.Tensor, error) {
	T := l.cfg.RolloutLen
	n := targetLogp.Size()
	B := n / T

	rho := make([]float64, n)
	cs := make([]float64, n)
	for i := 0; i < n; i++ {
		r := math.Exp(targetLogp.Data()[i] - behaviorLogp.Data()[i])
		rho[i] = math.Min(r, l.cfg.RhoClip)
		cs[i] = math.Min(r, l.cfg.CClip)
	}

	vs := make([]float64, n)
	// Backward recursion: vs_t = V_t + δ_t + γ_t c_t (vs_{t+1} - V_{t+1}).
	acc := make([]float64, B) // vs_{t+1} - V_{t+1}
	for t := T - 1; t >= 0; t-- {
		for b := 0; b < B; b++ {
			i := t*B + b
			var nextV float64
			if t == T-1 {
				nextV = bootstrap.Data()[b]
			} else {
				nextV = values.Data()[(t+1)*B+b]
			}
			delta := rho[i] * (rewards.Data()[i] + discounts.Data()[i]*nextV - values.Data()[i])
			vs[i] = values.Data()[i] + delta + discounts.Data()[i]*cs[i]*acc[b]
			acc[b] = vs[i] - values.Data()[i]
		}
	}

	adv := make([]float64, n)
	for t := 0; t < T; t++ {
		for b := 0; b < B; b++ {
			i := t*B + b
			var nextVS float64
			if t == T-1 {
				nextVS = bootstrap.Data()[b]
			} else {
				nextVS = vs[(t+1)*B+b]
			}
			adv[i] = rho[i] * (rewards.Data()[i] + discounts.Data()[i]*nextVS - values.Data()[i])
		}
	}
	return []*tensor.Tensor{tensor.FromSlice(vs, n), tensor.FromSlice(adv, n)}, nil
}
