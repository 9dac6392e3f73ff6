package graph

import (
	"fmt"

	"rlgraph/internal/tensor"
)

// sumOp reduces all elements to a scalar.
type sumOp struct{ mean bool }

func (o *sumOp) Name() string {
	if o.mean {
		return "Mean"
	}
	return "Sum"
}
func (o *sumOp) InferShape([][]int) ([]int, error) { return []int{}, nil }
func (o *sumOp) Eval(ctx *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	// A sequential sum in storage order, into an arena-backed scalar instead
	// of a fresh heap Scalar per reduction.
	s := 0.0
	for _, v := range in[0].Data() {
		s += v
	}
	if o.mean && in[0].Size() > 0 {
		s /= float64(in[0].Size())
	}
	out := ctx.NewTensor()
	out.Data()[0] = s
	return out, nil
}
func (o *sumOp) Grad(g *Graph, n *Node, gy *Node) []*Node {
	x := n.inputs[0]
	grad := BroadcastLike(g, gy, x)
	if o.mean {
		grad = Div(g, grad, SizeOf(g, x))
	}
	return []*Node{grad}
}

func (o *sumOp) ValueSemantics() {}

// Sum adds a full reduction to a scalar.
func Sum(g *Graph, x *Node) *Node { return g.Add(&sumOp{}, x) }

// Mean adds a full mean reduction to a scalar.
func Mean(g *Graph, x *Node) *Node { return g.Add(&sumOp{mean: true}, x) }

// axisReduceOp reduces along a single axis.
type axisReduceOp struct {
	kind     string // "sum", "mean", "max", "min"
	axis     int
	keepDims bool
}

func (o *axisReduceOp) Name() string { return "Reduce" + o.kind }

func (o *axisReduceOp) InferShape(in [][]int) ([]int, error) {
	s := in[0]
	axis := o.axis
	if axis < 0 {
		axis += len(s)
	}
	if axis < 0 || axis >= len(s) {
		return nil, fmt.Errorf("axis %d out of range for %v", o.axis, s)
	}
	var out []int
	for i, d := range s {
		if i == axis {
			if o.keepDims {
				out = append(out, 1)
			}
			continue
		}
		out = append(out, d)
	}
	return out, nil
}

func (o *axisReduceOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	switch o.kind {
	case "sum":
		return tensor.SumAxis(in[0], o.axis, o.keepDims), nil
	case "mean":
		return tensor.MeanAxis(in[0], o.axis, o.keepDims), nil
	case "max":
		return tensor.MaxAxis(in[0], o.axis, o.keepDims), nil
	}
	return nil, fmt.Errorf("unknown reduce kind %q", o.kind)
}

func (o *axisReduceOp) ValueSemantics() {}

func (o *axisReduceOp) Grad(g *Graph, n *Node, gy *Node) []*Node {
	x := n.inputs[0]
	switch o.kind {
	case "sum", "mean":
		grad := g.Add(&axisReduceGradOp{axis: o.axis, keepDims: o.keepDims, mean: o.kind == "mean"}, gy, x)
		return []*Node{grad}
	case "max":
		// Subgradient: route gy to elements equal to the reduced value.
		// Ties receive duplicated gradient; acceptable for RL losses where
		// max reductions sit inside StopGradient or ties have measure 0.
		expanded := g.Add(&axisReduceGradOp{axis: o.axis, keepDims: o.keepDims}, gy, x)
		reduced := g.Add(&axisReduceOp{kind: o.kind, axis: o.axis, keepDims: true}, x)
		mask := EqualElems(g, x, reduced)
		return []*Node{Mul(g, expanded, mask)}
	}
	return nil
}

// axisReduceGradOp expands gy back to x's runtime shape along the reduced
// axis (dividing by the axis length for mean reductions).
type axisReduceGradOp struct {
	axis     int
	keepDims bool
	mean     bool
}

func (o *axisReduceGradOp) Name() string                         { return "ReduceGrad" }
func (o *axisReduceGradOp) InferShape(in [][]int) ([]int, error) { return in[1], nil }
func (o *axisReduceGradOp) Eval(ctx *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	gy, x := in[0], in[1]
	axis := o.axis
	if axis < 0 {
		axis += x.Rank()
	}
	if !o.keepDims {
		gy = tensor.ExpandDims(gy, axis)
	}
	// Broadcast gy up to x's shape through arena-backed storage: NewTensor
	// zero-fills, so accumulate-broadcast equals Add(zeros, gy) bit for bit.
	out := ctx.NewTensor(x.Shape()...)
	tensor.AddBroadcastInPlace(out, gy)
	if o.mean {
		tensor.ScaleInPlace(out, 1/float64(x.Dim(axis)))
	}
	return out, nil
}

func (o *axisReduceGradOp) ValueSemantics() {}

// SumAxis adds a single-axis sum.
func SumAxis(g *Graph, x *Node, axis int, keepDims bool) *Node {
	return g.Add(&axisReduceOp{kind: "sum", axis: axis, keepDims: keepDims}, x)
}

// MeanAxis adds a single-axis mean.
func MeanAxis(g *Graph, x *Node, axis int, keepDims bool) *Node {
	return g.Add(&axisReduceOp{kind: "mean", axis: axis, keepDims: keepDims}, x)
}

// MaxAxis adds a single-axis max.
func MaxAxis(g *Graph, x *Node, axis int, keepDims bool) *Node {
	return g.Add(&axisReduceOp{kind: "max", axis: axis, keepDims: keepDims}, x)
}

// argmaxOp is non-differentiable.
type argmaxOp struct{ axis int }

func (o *argmaxOp) Name() string { return "ArgMax" }
func (o *argmaxOp) InferShape(in [][]int) ([]int, error) {
	s := in[0]
	axis := o.axis
	if axis < 0 {
		axis += len(s)
	}
	var out []int
	for i, d := range s {
		if i != axis {
			out = append(out, d)
		}
	}
	return out, nil
}
func (o *argmaxOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.ArgMaxAxis(in[0], o.axis), nil
}

func (o *argmaxOp) ValueSemantics() {}

// ArgMaxAxis adds an index-of-max reduction (non-differentiable).
func ArgMaxAxis(g *Graph, x *Node, axis int) *Node { return g.Add(&argmaxOp{axis: axis}, x) }

// softmaxOp computes softmax over the last axis.
type softmaxOp struct{}

func (softmaxOp) Name() string                         { return "Softmax" }
func (softmaxOp) InferShape(in [][]int) ([]int, error) { return in[0], nil }
func (softmaxOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.Softmax(in[0]), nil
}
func (softmaxOp) Grad(g *Graph, n *Node, gy *Node) []*Node {
	// dx = s * (gy - sum(gy*s, last, keepdims)), with s the forward output.
	inner := SumAxis(g, Mul(g, gy, n), -1, true)
	return []*Node{Mul(g, n, Sub(g, gy, inner))}
}

func (softmaxOp) ValueSemantics() {}

// Softmax adds a last-axis softmax.
func Softmax(g *Graph, x *Node) *Node { return g.Add(softmaxOp{}, x) }

// logSoftmaxOp computes log-softmax over the last axis.
type logSoftmaxOp struct{}

func (logSoftmaxOp) Name() string                         { return "LogSoftmax" }
func (logSoftmaxOp) InferShape(in [][]int) ([]int, error) { return in[0], nil }
func (logSoftmaxOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.LogSoftmax(in[0]), nil
}
func (logSoftmaxOp) Grad(g *Graph, n *Node, gy *Node) []*Node {
	// dx = gy - softmax(x) * sum(gy, last, keepdims).
	sm := Exp(g, Identity(g, n)) // softmax = exp(logsoftmax)
	inner := SumAxis(g, gy, -1, true)
	return []*Node{Sub(g, gy, Mul(g, sm, inner))}
}

func (logSoftmaxOp) ValueSemantics() {}

// LogSoftmax adds a last-axis log-softmax.
func LogSoftmax(g *Graph, x *Node) *Node { return g.Add(logSoftmaxOp{}, x) }
