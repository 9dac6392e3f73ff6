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

// Conv2DLayer is an NHWC convolution layer with bias and activation. Its
// forward op lowers to tensor.Conv2D on both backends, so agent networks
// built from this layer exercise the arena-backed tiled conv pipeline (see
// internal/tensor/conv.go) rather than a layer-local fallback.
type Conv2DLayer struct {
	*component.Component

	filters    int
	kernelH    int
	kernelW    int
	params     tensor.ConvParams
	activation string
	seed       int64

	W, B *vars.Variable
}

// NewConv2D returns a conv layer. padding is "valid" or "same".
func NewConv2D(name string, filters, kernel, stride int, padding, activation string, seed int64) *Conv2DLayer {
	p := tensor.ConvParams{StrideH: stride, StrideW: stride}
	if padding == "same" {
		p.PadH, p.PadW = tensor.SamePadding(kernel, kernel)
	}
	c := &Conv2DLayer{
		Component: component.New(name), filters: filters,
		kernelH: kernel, kernelW: kernel, params: p,
		activation: activation, seed: seed,
	}
	c.SetImpl(c)
	c.DefineAPI("call", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return c.GraphFn(ctx, "forward", 1, c.forward, in...)
	})
	return c
}

func (c *Conv2DLayer) forward(g *graph.Graph, in []*graph.Node) []*graph.Node {
	y := graph.Add(g, graph.Conv2D(g, in[0], graph.VarRead(g, c.W), c.params), graph.VarRead(g, c.B))
	return []*graph.Node{applyActivation(g, y, c.activation)}
}

// CreateVariables builds the filter [kh,kw,C,OC] and bias [OC] from the
// input space's channel count.
func (c *Conv2DLayer) CreateVariables(inSpaces []spaces.Space) error {
	shape := inSpaces[0].Shape()
	if len(shape) != 3 {
		return fmt.Errorf("nn: Conv2D %q wants HWC input, got element shape %v", c.Name(), shape)
	}
	inC := shape[2]
	fanIn := c.kernelH * c.kernelW * inC
	fanOut := c.kernelH * c.kernelW * c.filters
	rng := rand.New(rand.NewSource(c.seed))
	c.W = c.AddVariable(vars.New("W",
		tensor.GlorotUniform(rng, fanIn, fanOut, c.kernelH, c.kernelW, inC, c.filters)))
	c.B = c.AddVariable(vars.New("b", tensor.New(c.filters)))
	return nil
}
