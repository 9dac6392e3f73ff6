package graph

import (
	"fmt"

	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// errNotFed is returned when a placeholder is evaluated without a feed.
type errNotFed struct{ name string }

func (e errNotFed) Error() string { return fmt.Sprintf("graph: placeholder %q was not fed", e.name) }

// placeholderOp produces a fed value at run time.
type placeholderOp struct {
	name  string
	shape []int
}

func (o *placeholderOp) Name() string                      { return "Placeholder" }
func (o *placeholderOp) InferShape([][]int) ([]int, error) { return o.shape, nil }
func (o *placeholderOp) Eval(*RunCtx, []*tensor.Tensor) (*tensor.Tensor, error) {
	return nil, errNotFed{o.name}
}

// Placeholder adds a named input slot with the given static shape (-1 for
// unknown dims such as batch).
func Placeholder(g *Graph, name string, shape []int) *Node {
	return g.Add(&placeholderOp{name: name, shape: append([]int(nil), shape...)}).WithName(name)
}

// constOp produces a fixed tensor.
type constOp struct{ val *tensor.Tensor }

func (o *constOp) Name() string                      { return "Const" }
func (o *constOp) InferShape([][]int) ([]int, error) { return o.val.Shape(), nil }
func (o *constOp) Eval(*RunCtx, []*tensor.Tensor) (*tensor.Tensor, error) {
	return o.val, nil
}

// Const adds a constant node.
func Const(g *Graph, v *tensor.Tensor) *Node { return g.Add(&constOp{val: v}) }

// ConstScalar adds a rank-0 constant.
func ConstScalar(g *Graph, v float64) *Node { return Const(g, tensor.Scalar(v)) }

// varReadOp reads a variable's current value.
type varReadOp struct{ v *vars.Variable }

func (o *varReadOp) Name() string { return "VarRead" }
func (o *varReadOp) InferShape([][]int) ([]int, error) {
	if o.v.Val == nil {
		return nil, fmt.Errorf("variable %q has no value", o.v.Name)
	}
	return o.v.Val.Shape(), nil
}
func (o *varReadOp) Eval(*RunCtx, []*tensor.Tensor) (*tensor.Tensor, error) {
	return o.v.Val, nil
}
func (o *varReadOp) StatefulEval() {}

// VarRead adds a node that reads v at run time. Gradients flow into reads of
// trainable variables via the Gradients wrt-node mechanism.
func VarRead(g *Graph, v *vars.Variable) *Node {
	return g.Add(&varReadOp{v: v}).WithName(v.Name)
}

// Variable returns the variable a VarRead node reads, or nil.
func (n *Node) Variable() *vars.Variable {
	if o, ok := n.op.(*varReadOp); ok {
		return o.v
	}
	return nil
}

// assignOp writes its input into a variable and yields the written value.
// When owned is set, the input tensor is installed without a copy (ownership
// transfer); otherwise the variable clones it.
type assignOp struct {
	v     *vars.Variable
	owned bool
}

func (o *assignOp) Name() string { return "Assign" }
func (o *assignOp) InferShape(in [][]int) ([]int, error) {
	return in[0], nil
}
func (o *assignOp) Eval(_ *RunCtx, inputs []*tensor.Tensor) (*tensor.Tensor, error) {
	if o.owned {
		o.v.SetOwned(inputs[0])
	} else {
		o.v.Set(inputs[0])
	}
	return inputs[0], nil
}
func (o *assignOp) StatefulEval() {}

// Assign adds a stateful node that stores val into v when evaluated.
//
// When val is produced by a value-semantics op its output is a fresh tensor
// aliasing nothing else, and — because assignOp is a non-value-semantics
// consumer — the plan's release analysis never recycles it through the run
// arena. The assign can therefore transfer ownership instead of cloning,
// which removes the dominant steady-state heap traffic of optimizer updates
// (one full parameter-sized clone per slot variable per step). Aliasing
// producers (varRead, identity, feeds, consts) keep the defensive clone.
// Callers must not assign one value-semantics node to two different
// variables (both would own the same tensor); no graph builder in this
// repo does.
func Assign(g *Graph, v *vars.Variable, val *Node) *Node {
	_, vs := val.op.(ValueSemanticsOp)
	return g.Add(&assignOp{v: v, owned: vs}, val)
}

// applyUpdateOp runs one fused optimizer update of a variable and its slots
// in place (tensor.UpdateRule.Apply) and yields a copy of its second input,
// the global gradient norm. It has value semantics towards the plan — the
// result is a fresh scalar and neither input is retained — so the gradient's
// buffer returns to the arena as soon as the update has consumed it.
type applyUpdateOp struct {
	v    *vars.Variable
	rule *tensor.UpdateRule
	st   *tensor.UpdateState
}

func (o *applyUpdateOp) Name() string                         { return "ApplyUpdate" }
func (o *applyUpdateOp) InferShape(in [][]int) ([]int, error) { return in[1], nil }
func (o *applyUpdateOp) Eval(ctx *RunCtx, inputs []*tensor.Tensor) (*tensor.Tensor, error) {
	norm := inputs[1].Item()
	o.rule.Apply(o.v.Val, o.st, inputs[0], norm)
	out := ctx.NewTensor()
	out.Data()[0] = norm
	return out, nil
}
func (o *applyUpdateOp) StatefulEval()   {}
func (o *applyUpdateOp) ValueSemantics() {}

// ApplyUpdate adds a stateful node that applies rule to v from gradient grad,
// keeping the slots and step count in st, and yields norm.
//
// norm is an input — and not only a clip operand — for ordering: it depends
// on every gradient of the step, and a VarRead result aliases the variable's
// storage, so with norm as a data dependency every read of the old weights
// (the backward pass needs them) precedes this in-place write in every
// executor, whatever order the plan was compiled in. Chaining a step's
// updates through their norm results leaves one node whose evaluation forces
// them all.
func ApplyUpdate(g *Graph, v *vars.Variable, rule *tensor.UpdateRule, st *tensor.UpdateState, grad, norm *Node) *Node {
	return g.Add(&applyUpdateOp{v: v, rule: rule, st: st}, grad, norm)
}

// groupOp evaluates all inputs and returns a scalar zero (like tf.group).
type groupOp struct{}

func (groupOp) Name() string                      { return "Group" }
func (groupOp) InferShape([][]int) ([]int, error) { return []int{}, nil }
func (groupOp) Eval(ctx *RunCtx, _ []*tensor.Tensor) (*tensor.Tensor, error) {
	// Arena-backed zero scalar: group results are produced once per optimizer
	// step chain, so a heap Scalar here shows up directly in allocs/op.
	return ctx.NewTensor(), nil
}

func (groupOp) ValueSemantics() {}

// Group adds a node that forces evaluation of all inputs, yielding 0.
func Group(g *Graph, ins ...*Node) *Node { return g.Add(groupOp{}, ins...) }

// StatefulFunc is an arbitrary host-side computation embedded in the graph.
// It is the bridge that lets components with native Go state (replay
// memories, queues, counters) participate in static graphs, mirroring how
// RLgraph wraps stateful TF ops.
type StatefulFunc func(inputs []*tensor.Tensor) (*tensor.Tensor, error)

type statefulOp struct {
	name  string
	shape []int
	fn    StatefulFunc
}

func (o *statefulOp) Name() string                      { return o.name }
func (o *statefulOp) InferShape([][]int) ([]int, error) { return o.shape, nil }
func (o *statefulOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return o.fn(in)
}
func (o *statefulOp) StatefulEval() {}

// Stateful adds a host-computation node with a declared output shape (-1 for
// unknown dims). Stateful nodes are opaque to autodiff.
func Stateful(g *Graph, name string, outShape []int, fn StatefulFunc, ins ...*Node) *Node {
	return g.Add(&statefulOp{name: name, shape: append([]int(nil), outShape...), fn: fn}, ins...)
}

// StatefulMultiFunc is a host computation with several outputs.
type StatefulMultiFunc func(inputs []*tensor.Tensor) ([]*tensor.Tensor, error)

// statefulMultiBase evaluates the host function once per run and stashes the
// outputs; pick nodes extract individual results. Session memoization
// guarantees the base evaluates exactly once per Run, so all picks observe
// one consistent invocation (e.g. one replay-memory sample).
type statefulMultiBase struct {
	name string
	fn   StatefulMultiFunc
	last []*tensor.Tensor
}

func (o *statefulMultiBase) Name() string                      { return o.name }
func (o *statefulMultiBase) InferShape([][]int) ([]int, error) { return []int{}, nil }
func (o *statefulMultiBase) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	outs, err := o.fn(in)
	if err != nil {
		return nil, err
	}
	o.last = outs
	return tensor.Scalar(float64(len(outs))), nil
}
func (o *statefulMultiBase) StatefulEval() {}

// statefulPickOp reads output i of its base node's latest evaluation.
type statefulPickOp struct {
	base  *statefulMultiBase
	index int
	shape []int
}

func (o *statefulPickOp) Name() string                      { return o.base.name + "Pick" }
func (o *statefulPickOp) InferShape([][]int) ([]int, error) { return o.shape, nil }
func (o *statefulPickOp) Eval(_ *RunCtx, _ []*tensor.Tensor) (*tensor.Tensor, error) {
	if o.index >= len(o.base.last) {
		return nil, fmt.Errorf("stateful %q produced %d outputs, want index %d",
			o.base.name, len(o.base.last), o.index)
	}
	return o.base.last[o.index], nil
}
func (o *statefulPickOp) StatefulEval() {}

// StatefulMulti adds a host computation with len(outShapes) outputs,
// returning one node per output.
func StatefulMulti(g *Graph, name string, outShapes [][]int, fn StatefulMultiFunc, ins ...*Node) []*Node {
	base := &statefulMultiBase{name: name, fn: fn}
	baseNode := g.Add(base, ins...)
	out := make([]*Node, len(outShapes))
	for i, s := range outShapes {
		out[i] = g.Add(&statefulPickOp{base: base, index: i, shape: append([]int(nil), s...)}, baseNode)
	}
	return out
}

// identityOp passes through its input.
type identityOp struct{ name string }

func (o identityOp) Name() string                         { return o.name }
func (o identityOp) InferShape(in [][]int) ([]int, error) { return in[0], nil }
func (o identityOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return in[0], nil
}
func (o identityOp) Grad(g *Graph, _ *Node, gy *Node) []*Node {
	if o.name == "StopGradient" {
		return []*Node{nil}
	}
	return []*Node{gy}
}

// Identity adds a pass-through node (useful for naming/devices).
func Identity(g *Graph, x *Node) *Node { return g.Add(identityOp{name: "Identity"}, x) }

// StopGradient passes x through but blocks gradient flow, as used around
// target-network Q-values in the DQN loss.
func StopGradient(g *Graph, x *Node) *Node { return g.Add(identityOp{name: "StopGradient"}, x) }

// onesLikeOp yields a ones tensor with its input's runtime shape.
type onesLikeOp struct{}

func (onesLikeOp) Name() string                         { return "OnesLike" }
func (onesLikeOp) InferShape(in [][]int) ([]int, error) { return in[0], nil }
func (onesLikeOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.Ones(in[0].Shape()...), nil
}

func (onesLikeOp) ValueSemantics() {}

// OnesLike adds a node producing ones shaped like x at run time.
func OnesLike(g *Graph, x *Node) *Node { return g.Add(onesLikeOp{}, x) }

// zerosLikeOp yields a zeros tensor with its input's runtime shape.
type zerosLikeOp struct{}

func (zerosLikeOp) Name() string                         { return "ZerosLike" }
func (zerosLikeOp) InferShape(in [][]int) ([]int, error) { return in[0], nil }
func (zerosLikeOp) Eval(ctx *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return ctx.NewTensor(in[0].Shape()...), nil
}
func (zerosLikeOp) ValueSemantics() {}

// ZerosLike adds a node producing zeros shaped like x at run time.
func ZerosLike(g *Graph, x *Node) *Node { return g.Add(zerosLikeOp{}, x) }

// reshapeLikeOp reshapes input 0 to input 1's runtime shape.
type reshapeLikeOp struct{}

func (reshapeLikeOp) Name() string                         { return "ReshapeLike" }
func (reshapeLikeOp) InferShape(in [][]int) ([]int, error) { return in[1], nil }
func (reshapeLikeOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return in[0].Reshape(in[1].Shape()...), nil
}

// ReshapeLike adds a node reshaping x to ref's runtime shape (gradient
// helper for Reshape).
func ReshapeLike(g *Graph, x, ref *Node) *Node { return g.Add(reshapeLikeOp{}, x, ref) }

// unbroadcastLikeOp sums input 0 down to input 1's runtime shape — the
// adjoint of broadcasting.
type unbroadcastLikeOp struct{}

func (unbroadcastLikeOp) Name() string                         { return "UnbroadcastLike" }
func (unbroadcastLikeOp) InferShape(in [][]int) ([]int, error) { return in[1], nil }
func (unbroadcastLikeOp) Eval(ctx *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	if tensor.SameShape(in[0].Shape(), in[1].Shape()) {
		// Nothing was broadcast: copy through arena-backed storage instead of
		// UnbroadcastTo's Clone, which always heap-allocates.
		out := ctx.NewTensor(in[0].Shape()...)
		out.CopyFrom(in[0])
		return out, nil
	}
	// Arena-backed accumulation: NewTensor zero-fills, so the Into form is
	// identical to UnbroadcastTo minus its heap allocation.
	return tensor.UnbroadcastInto(ctx.NewTensor(in[1].Shape()...), in[0]), nil
}

func (unbroadcastLikeOp) ValueSemantics() {}

// UnbroadcastLike adds a node reducing gy to ref's runtime shape by summing
// broadcast dimensions.
func UnbroadcastLike(g *Graph, gy, ref *Node) *Node { return g.Add(unbroadcastLikeOp{}, gy, ref) }

// broadcastLikeOp expands input 0 to input 1's runtime shape by broadcasting.
type broadcastLikeOp struct{}

func (broadcastLikeOp) Name() string                         { return "BroadcastLike" }
func (broadcastLikeOp) InferShape(in [][]int) ([]int, error) { return in[1], nil }
func (broadcastLikeOp) Eval(ctx *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	// NewTensor zero-fills, so accumulate-broadcast equals the former
	// Add(zeros, x) formulation bit for bit, minus both heap allocations.
	out := ctx.NewTensor(in[1].Shape()...)
	tensor.AddBroadcastInPlace(out, in[0])
	return out, nil
}

func (broadcastLikeOp) ValueSemantics() {}

// BroadcastLike adds a node broadcasting x up to ref's runtime shape.
func BroadcastLike(g *Graph, x, ref *Node) *Node { return g.Add(broadcastLikeOp{}, x, ref) }

// sizeOfOp yields the element count of its input as a scalar.
type sizeOfOp struct{}

func (sizeOfOp) Name() string                      { return "SizeOf" }
func (sizeOfOp) InferShape([][]int) ([]int, error) { return []int{}, nil }
func (sizeOfOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.Scalar(float64(in[0].Size())), nil
}

func (sizeOfOp) ValueSemantics() {}

// SizeOf adds a node yielding x's runtime element count.
func SizeOf(g *Graph, x *Node) *Node { return g.Add(sizeOfOp{}, x) }
