package nn

import (
	"fmt"
	"math/rand"

	"rlgraph/internal/component"
	"rlgraph/internal/graph"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// LSTM is a fused-gate LSTM layer for recurrent policies (the paper's
// Listing 1 builds a policy from "recurrent_policy.json"; IMPALA's network
// carries an LSTM core). It exposes:
//
//	call(x [b, T, F])            -> out [b, U]        // unrolled, zero init,
//	                                                  // last output (BPTT
//	                                                  // through all T steps)
//	step(x [b, F], h, c [b, U])  -> out, hNew, cNew   // explicit state
//
// The time length T must be statically known: it is part of the input
// space's element shape.
type LSTM struct {
	*component.Component

	units      int
	forgetBias float64
	seed       int64

	// Fused gate weights: order (i, g, f, o) along the last axis.
	Wx, Wh, B *vars.Variable
}

// NewLSTM returns an LSTM layer with the given state width.
func NewLSTM(name string, units int, seed int64) *LSTM {
	l := &LSTM{Component: component.New(name), units: units, forgetBias: 1, seed: seed}
	l.SetImpl(l)
	l.DefineAPI("call", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return l.GraphFn(ctx, "unroll", 1, l.unrollFn, in...)
	})
	l.DefineAPI("step", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return l.GraphFn(ctx, "step", 3, l.stepFn, in...)
	})
	return l
}

// CreateVariables sizes the fused gate weights from the feature width of
// whichever API builds first ([b,T,F] for call, [b,F] for step).
func (l *LSTM) CreateVariables(inSpaces []spaces.Space) error {
	shape := inSpaces[0].Shape()
	var f int
	switch len(shape) {
	case 2: // [T, F] element shape from call
		f = shape[1]
	case 1: // [F] element shape from step
		f = shape[0]
	default:
		return fmt.Errorf("nn: LSTM %q wants [b,T,F] or [b,F] input, got element shape %v",
			l.Name(), shape)
	}
	rng := rand.New(rand.NewSource(l.seed))
	l.Wx = l.AddVariable(vars.New("Wx", tensor.GlorotUniform(rng, f, l.units, f, 4*l.units)))
	l.Wh = l.AddVariable(vars.New("Wh", tensor.GlorotUniform(rng, l.units, l.units, l.units, 4*l.units)))
	l.B = l.AddVariable(vars.New("b", tensor.New(4*l.units)))
	return nil
}

// cell applies one LSTM step to (x [b,F], h, c [b,U]).
func (l *LSTM) cell(g *graph.Graph, x, h, c *graph.Node) (hNew, cNew *graph.Node) {
	u := l.units
	z := graph.Add(g, graph.Add(g, graph.MatMul(g, x, graph.VarRead(g, l.Wx)), graph.MatMul(g, h, graph.VarRead(g, l.Wh))),
		graph.VarRead(g, l.B))
	i := graph.Sigmoid(g, graph.SliceCols(g, z, 0, u))
	cand := graph.Tanh(g, graph.SliceCols(g, z, u, 2*u))
	f := graph.Sigmoid(g, graph.AddScalar(g, graph.SliceCols(g, z, 2*u, 3*u), l.forgetBias))
	o := graph.Sigmoid(g, graph.SliceCols(g, z, 3*u, 4*u))
	cNew = graph.Add(g, graph.Mul(g, f, c), graph.Mul(g, i, cand))
	hNew = graph.Mul(g, o, graph.Tanh(g, cNew))
	return hNew, cNew
}

func (l *LSTM) stepFn(g *graph.Graph, in []*graph.Node) []*graph.Node {
	h, c := l.cell(g, in[0], in[1], in[2])
	return []*graph.Node{h, h, c}
}

// unrollFn runs BPTT over the statically known time dimension with zero
// initial state, returning the last hidden output.
func (l *LSTM) unrollFn(g *graph.Graph, in []*graph.Node) []*graph.Node {
	shape := in[0].Shape()
	if len(shape) != 3 {
		panic(fmt.Sprintf("nn: LSTM %q call wants [b,T,F], got %v", l.Name(), shape))
	}
	T, F := shape[1], shape[2]
	if T < 0 || F < 0 {
		panic(fmt.Sprintf("nn: LSTM %q needs static time/feature dims, got %v", l.Name(), shape))
	}
	flat := graph.Reshape(g, in[0], -1, T*F)

	// Zero initial state with the runtime batch size: multiply the first
	// step by a zero matrix (cheap at these widths, backend-independent).
	x0 := graph.SliceCols(g, flat, 0, F)
	zeroProj := graph.Const(g, tensor.New(F, l.units))
	h := graph.MatMul(g, x0, zeroProj)
	c := graph.MatMul(g, x0, zeroProj)

	for t := 0; t < T; t++ {
		xt := graph.SliceCols(g, flat, t*F, (t+1)*F)
		h, c = l.cell(g, xt, h, c)
	}
	return []*graph.Node{h}
}
