// Package nn provides neural-network components: layers with strict API
// boundaries that the graph builder assembles into differentiable dataflow
// on either backend. Layers create their weight variables at build time from
// inferred input spaces (the input-completeness barrier), so users never
// declare weight shapes by hand.
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

// applyActivation appends the named activation to a ref.
func applyActivation(g *graph.Graph, x *graph.Node, act string) *graph.Node {
	switch act {
	case "":
		return x
	case "relu":
		return graph.Relu(g, x)
	case "tanh":
		return graph.Tanh(g, x)
	default:
		panic(fmt.Sprintf("nn: unknown activation %q", act))
	}
}

// Dense is a fully connected layer: y = act(xW + b). Its weight shapes are
// inferred from the input space during the build.
type Dense struct {
	*component.Component

	units      int
	activation string
	seed       int64

	// W and B are created at build time.
	W, B *vars.Variable
}

// NewDense returns a dense layer producing `units` features.
func NewDense(name string, units int, activation string, seed int64) *Dense {
	d := &Dense{Component: component.New(name), units: units, activation: activation, seed: seed}
	d.SetImpl(d)
	d.DefineAPI("call", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return d.GraphFn(ctx, "forward", 1, d.forward, in...)
	})
	return d
}

func (d *Dense) forward(g *graph.Graph, in []*graph.Node) []*graph.Node {
	y := graph.Add(g, graph.MatMul(g, in[0], graph.VarRead(g, d.W)), graph.VarRead(g, d.B))
	return []*graph.Node{applyActivation(g, y, d.activation)}
}

// CreateVariables builds W [fanIn, units] and B [units] from the input space.
func (d *Dense) CreateVariables(inSpaces []spaces.Space) error {
	shape := inSpaces[0].Shape()
	if len(shape) != 1 {
		return fmt.Errorf("nn: Dense %q wants rank-1 feature input, got element shape %v", d.Name(), shape)
	}
	fanIn := shape[0]
	rng := rand.New(rand.NewSource(d.seed))
	d.W = d.AddVariable(vars.New("W", tensor.GlorotUniform(rng, fanIn, d.units, fanIn, d.units)))
	d.B = d.AddVariable(vars.New("b", tensor.New(d.units)))
	return nil
}

// Flatten reshapes [b, d1, d2, ...] to [b, d1*d2*...]. It owns no variables
// but is a first-class component so it can be built and tested in isolation.
type Flatten struct {
	*component.Component
}

// NewFlatten returns a flatten component.
func NewFlatten(name string) *Flatten {
	f := &Flatten{Component: component.New(name)}
	f.DefineAPI("call", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return f.GraphFn(ctx, "flatten", 1, func(g *graph.Graph, refs []*graph.Node) []*graph.Node {
			return []*graph.Node{graph.FlattenBatch(g, refs[0])}
		}, in...)
	})
	return f
}
