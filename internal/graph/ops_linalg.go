package graph

import (
	"fmt"

	"rlgraph/internal/tensor"
)

// matmulOp multiplies rank-2 operands, optionally transposing either.
type matmulOp struct {
	transA, transB bool
}

func (o *matmulOp) Name() string {
	switch {
	case o.transA:
		return "MatMulTA"
	case o.transB:
		return "MatMulTB"
	default:
		return "MatMul"
	}
}

func (o *matmulOp) InferShape(in [][]int) ([]int, error) {
	a, b := in[0], in[1]
	if len(a) != 2 || len(b) != 2 {
		return nil, fmt.Errorf("matmul wants rank-2 operands, got %v x %v", a, b)
	}
	am, ak := a[0], a[1]
	if o.transA {
		am, ak = ak, am
	}
	bk, bn := b[0], b[1]
	if o.transB {
		bk, bn = bn, bk
	}
	if _, err := mergeDims(ak, bk); err != nil {
		return nil, fmt.Errorf("matmul inner dims: %v x %v", a, b)
	}
	return []int{am, bn}, nil
}

func (o *matmulOp) Eval(ctx *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	a, b := in[0], in[1]
	switch {
	case o.transA:
		return tensor.MatMulTransAInto(ctx.NewTensor2(a.Dim(1), b.Dim(1)), a, b), nil
	case o.transB:
		return tensor.MatMulTransBInto(ctx.NewTensor2(a.Dim(0), b.Dim(0)), a, b), nil
	default:
		return tensor.MatMulInto(ctx.NewTensor2(a.Dim(0), b.Dim(1)), a, b), nil
	}
}

func (o *matmulOp) ValueSemantics() {}

func (o *matmulOp) Grad(g *Graph, n *Node, gy *Node) []*Node {
	a, b := n.inputs[0], n.inputs[1]
	if o.transA || o.transB {
		// Gradient graphs only emit the plain variant; transposed variants
		// appear solely inside gradients, for which we do not need
		// second-order support.
		return nil
	}
	da := g.Add(&matmulOp{transB: true}, gy, b) // gy × bᵀ
	db := g.Add(&matmulOp{transA: true}, a, gy) // aᵀ × gy
	return []*Node{da, db}
}

// MatMul multiplies [m,k] x [k,n] -> [m,n].
func MatMul(g *Graph, a, b *Node) *Node { return g.Add(&matmulOp{}, a, b) }

// conv2dOp performs NHWC convolution with a [KH,KW,C,OC] filter.
type conv2dOp struct {
	params tensor.ConvParams
}

func (o *conv2dOp) Name() string { return "Conv2D" }

func (o *conv2dOp) InferShape(in [][]int) ([]int, error) {
	x, f := in[0], in[1]
	if len(x) != 4 || len(f) != 4 {
		return nil, fmt.Errorf("conv2d wants rank-4 input/filter, got %v, %v", x, f)
	}
	if _, err := mergeDims(x[3], f[2]); err != nil {
		return nil, fmt.Errorf("conv2d channels: input %v filter %v", x, f)
	}
	oh, ow := -1, -1
	if x[1] >= 0 {
		oh, _ = o.params.ConvOutDims(x[1], 1, f[0], 1)
	}
	if x[2] >= 0 {
		_, ow = o.params.ConvOutDims(1, x[2], 1, f[1])
	}
	return []int{x[0], oh, ow, f[3]}, nil
}

func (o *conv2dOp) Eval(ctx *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	x, f := in[0], in[1]
	oh, ow := o.params.ConvOutDims(x.Dim(1), x.Dim(2), f.Dim(0), f.Dim(1))
	return tensor.Conv2DInto(ctx.NewTensor(x.Dim(0), oh, ow, f.Dim(3)), x, f, o.params), nil
}

func (o *conv2dOp) ValueSemantics() {}

func (o *conv2dOp) Grad(g *Graph, n *Node, gy *Node) []*Node {
	x, f := n.inputs[0], n.inputs[1]
	dx := g.Add(&conv2dBackInputOp{params: o.params}, gy, f, x)
	df := g.Add(&conv2dBackFilterOp{params: o.params}, x, gy, f)
	return []*Node{dx, df}
}

// Conv2D adds an NHWC convolution node.
func Conv2D(g *Graph, x, filter *Node, params tensor.ConvParams) *Node {
	return g.Add(&conv2dOp{params: params}, x, filter)
}

// conv2dBackInputOp computes dL/dInput; input 2 carries the forward input
// for its runtime shape.
type conv2dBackInputOp struct{ params tensor.ConvParams }

func (o *conv2dBackInputOp) Name() string                         { return "Conv2DBackInput" }
func (o *conv2dBackInputOp) InferShape(in [][]int) ([]int, error) { return in[2], nil }
func (o *conv2dBackInputOp) Eval(ctx *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.Conv2DBackwardInputInto(ctx.NewTensor(in[2].Shape()...), in[0], in[1], o.params), nil
}

func (o *conv2dBackInputOp) ValueSemantics() {}

// conv2dBackFilterOp computes dL/dFilter; input 2 carries the filter for its
// shape.
type conv2dBackFilterOp struct{ params tensor.ConvParams }

func (o *conv2dBackFilterOp) Name() string                         { return "Conv2DBackFilter" }
func (o *conv2dBackFilterOp) InferShape(in [][]int) ([]int, error) { return in[2], nil }
func (o *conv2dBackFilterOp) Eval(ctx *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.Conv2DBackwardFilterInto(ctx.NewTensor(in[2].Shape()...), in[0], in[1], o.params), nil
}

func (o *conv2dBackFilterOp) ValueSemantics() {}
