package graph

import (
	"fmt"

	"rlgraph/internal/tensor"
)

// reshapeOp reshapes to a static target shape; one -1 dim is inferred at run
// time.
type reshapeOp struct{ target []int }

func (o *reshapeOp) Name() string { return "Reshape" }
func (o *reshapeOp) InferShape(in [][]int) ([]int, error) {
	out := append([]int(nil), o.target...)
	// Leave -1 as unknown statically; runtime infers it.
	return out, nil
}
func (o *reshapeOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return in[0].Reshape(o.target...), nil
}
func (o *reshapeOp) Grad(g *Graph, n *Node, gy *Node) []*Node {
	return []*Node{ReshapeLike(g, gy, n.inputs[0])}
}

// Reshape adds a reshape to a (possibly -1-inferred) static target shape.
func Reshape(g *Graph, x *Node, shape ...int) *Node {
	return g.Add(&reshapeOp{target: append([]int(nil), shape...)}, x)
}

// FlattenBatch reshapes [b, d1, d2, ...] into [b, d1*d2*...], keeping the
// batch dimension.
func FlattenBatch(g *Graph, x *Node) *Node {
	s := x.Shape()
	if len(s) < 2 {
		return x
	}
	features := 1
	for _, d := range s[1:] {
		if d < 0 {
			panic(fmt.Sprintf("graph: FlattenBatch needs static feature dims, got %v", s))
		}
		features *= d
	}
	return Reshape(g, x, -1, features)
}

// concatOp concatenates along an axis.
type concatOp struct{ axis int }

func (o *concatOp) Name() string { return "Concat" }
func (o *concatOp) InferShape(in [][]int) ([]int, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("concat of nothing")
	}
	out := append([]int(nil), in[0]...)
	axis := o.axis
	if axis < 0 {
		axis += len(out)
	}
	for _, s := range in[1:] {
		if len(s) != len(out) {
			return nil, fmt.Errorf("concat rank mismatch %v vs %v", s, out)
		}
		for d := range s {
			if d == axis {
				if out[d] >= 0 && s[d] >= 0 {
					out[d] += s[d]
				} else {
					out[d] = -1
				}
				continue
			}
			m, err := mergeDims(out[d], s[d])
			if err != nil {
				return nil, fmt.Errorf("concat dim %d: %v vs %v", d, out, s)
			}
			out[d] = m
		}
	}
	return out, nil
}
func (o *concatOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.Concat(o.axis, in...), nil
}
func (o *concatOp) ValueSemantics() {}

func (o *concatOp) Grad(g *Graph, n *Node, gy *Node) []*Node {
	out := make([]*Node, len(n.inputs))
	for i := range n.inputs {
		ins := append([]*Node{gy}, n.inputs...)
		out[i] = g.Add(&concatGradOp{axis: o.axis, index: i}, ins...)
	}
	return out
}

// concatGradOp slices the piece of gy that corresponds to original input
// `index`, using the runtime sizes of all original inputs.
type concatGradOp struct {
	axis  int
	index int
}

func (o *concatGradOp) Name() string { return "ConcatGrad" }
func (o *concatGradOp) InferShape(in [][]int) ([]int, error) {
	return in[1+o.index], nil
}
func (o *concatGradOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	gy := in[0]
	sizes := make([]int, len(in)-1)
	axis := o.axis
	if axis < 0 {
		axis += gy.Rank()
	}
	for i, t := range in[1:] {
		sizes[i] = t.Dim(axis)
	}
	parts := tensor.Split(gy, axis, sizes...)
	return parts[o.index], nil
}

func (o *concatGradOp) ValueSemantics() {}

// Concat adds a concatenation node along axis.
func Concat(g *Graph, axis int, xs ...*Node) *Node {
	ns := make([]*Node, len(xs))
	copy(ns, xs)
	return g.Add(&concatOp{axis: axis}, ns...)
}

// takeAlongLastOp selects per-row elements by index.
type takeAlongLastOp struct{}

func (takeAlongLastOp) Name() string { return "TakeAlongLast" }
func (takeAlongLastOp) InferShape(in [][]int) ([]int, error) {
	s := in[0]
	if len(s) < 1 {
		return nil, fmt.Errorf("TakeAlongLast on scalar")
	}
	return s[:len(s)-1], nil
}
func (takeAlongLastOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.TakeAlongLastAxis(in[0], in[1]), nil
}
func (takeAlongLastOp) ValueSemantics() {}

func (takeAlongLastOp) Grad(g *Graph, n *Node, gy *Node) []*Node {
	dx := g.Add(takeAlongLastGradOp{}, gy, n.inputs[0], n.inputs[1])
	return []*Node{dx, nil}
}

// takeAlongLastGradOp scatters gy back into an x-shaped zero tensor.
type takeAlongLastGradOp struct{}

func (takeAlongLastGradOp) Name() string                         { return "TakeAlongLastGrad" }
func (takeAlongLastGradOp) InferShape(in [][]int) ([]int, error) { return in[1], nil }
func (takeAlongLastGradOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.PutAlongLastAxis(in[1].Shape(), in[2], in[0]), nil
}

func (takeAlongLastGradOp) ValueSemantics() {}

// TakeAlongLastAxis adds out[i] = x[i, idx[i]] (the Q(s,a) selection in the
// DQN loss). Gradients flow into x only.
func TakeAlongLastAxis(g *Graph, x, idx *Node) *Node {
	return g.Add(takeAlongLastOp{}, x, idx)
}

// sliceColsOp selects a last-axis column range.
type sliceColsOp struct{ lo, hi int }

func (o *sliceColsOp) Name() string { return "SliceCols" }
func (o *sliceColsOp) InferShape(in [][]int) ([]int, error) {
	s := in[0]
	if len(s) == 0 {
		return nil, fmt.Errorf("SliceCols on scalar")
	}
	out := append([]int(nil), s...)
	out[len(out)-1] = o.hi - o.lo
	return out, nil
}
func (o *sliceColsOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.SliceCols(in[0], o.lo, o.hi), nil
}
func (o *sliceColsOp) ValueSemantics() {}

func (o *sliceColsOp) Grad(g *Graph, n *Node, gy *Node) []*Node {
	return []*Node{g.Add(&padColsGradOp{lo: o.lo}, gy, n.inputs[0])}
}

// padColsGradOp scatters gy back into the source's column range.
type padColsGradOp struct{ lo int }

func (o *padColsGradOp) Name() string                         { return "SliceColsGrad" }
func (o *padColsGradOp) InferShape(in [][]int) ([]int, error) { return in[1], nil }
func (o *padColsGradOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	total := in[1].Dim(in[1].Rank() - 1)
	return tensor.PadCols(in[0], o.lo, total), nil
}

func (o *padColsGradOp) ValueSemantics() {}

// SliceCols adds a last-axis column slice [lo, hi).
func SliceCols(g *Graph, x *Node, lo, hi int) *Node {
	return g.Add(&sliceColsOp{lo: lo, hi: hi}, x)
}

// shardRowsOp slices shard i of k along the (runtime) leading axis.
type shardRowsOp struct{ i, k int }

func (o *shardRowsOp) Name() string { return "ShardRows" }
func (o *shardRowsOp) InferShape(in [][]int) ([]int, error) {
	out := append([]int(nil), in[0]...)
	if len(out) == 0 {
		return nil, fmt.Errorf("ShardRows on scalar")
	}
	out[0] = -1
	return out, nil
}
func (o *shardRowsOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.ShardRows(in[0], o.i, o.k), nil
}
func (o *shardRowsOp) ValueSemantics() {}

func (o *shardRowsOp) Grad(g *Graph, n *Node, gy *Node) []*Node {
	return []*Node{g.Add(&shardRowsGradOp{i: o.i, k: o.k}, gy, n.inputs[0])}
}

// shardRowsGradOp scatters the shard gradient back to full-batch rows.
type shardRowsGradOp struct{ i, k int }

func (o *shardRowsGradOp) Name() string                         { return "ShardRowsGrad" }
func (o *shardRowsGradOp) InferShape(in [][]int) ([]int, error) { return in[1], nil }
func (o *shardRowsGradOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.PadRowsShard(in[0], o.i, o.k, in[1].Dim(0)), nil
}

func (o *shardRowsGradOp) ValueSemantics() {}

// ShardRows adds a leading-axis batch shard (tower input splitting in the
// synchronous multi-GPU strategy).
func ShardRows(g *Graph, x *Node, i, k int) *Node {
	return g.Add(&shardRowsOp{i: i, k: k}, x)
}
