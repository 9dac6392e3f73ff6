// Package backend defines the unified operation interface that RLgraph
// graph functions are written against. A graph function receives an Ops
// value and opaque Refs, which are dataflow graph nodes on both backends:
// with the static implementation the function *constructs* a graph that a
// Session runs later, while with the define-by-run implementation the nodes
// go into an eager graph that *computes* each one immediately. This realizes
// the paper's single-stream graph functions (§4.2): one component
// implementation serves both backends, and one definition of every op and
// its gradient serves both.
package backend

import (
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// Ref is an opaque handle to a value: a *graph.Node on both backends — of a
// static graph, or of an eager graph that has already computed its value.
type Ref interface{}

// StatefulFn is a host-side computation with native Go state (memories,
// queues, counters). It must not be differentiated through.
type StatefulFn func(inputs []*tensor.Tensor) (*tensor.Tensor, error)

// StatefulMultiFn is a multi-output host-side computation.
type StatefulMultiFn func(inputs []*tensor.Tensor) ([]*tensor.Tensor, error)

// Mode distinguishes the build pass (shape/variable inference with
// artificial inputs) from actual execution.
type Mode int

const (
	// ModeBuild is the graph-compilation pass: static backends emit nodes,
	// define-by-run backends push artificial zero tensors for inference.
	ModeBuild Mode = iota
	// ModeRun is define-by-run execution with real data.
	ModeRun
)

// Ops is the backend-independent operation set used inside graph functions.
type Ops interface {
	// Name identifies the backend: "static" or "define-by-run".
	Name() string

	// ShapeOf returns the (static) shape of a ref; -1 marks unknown dims.
	ShapeOf(x Ref) []int

	Const(t *tensor.Tensor) Ref
	ConstScalar(v float64) Ref
	// VarRead reads a variable; repeated reads of one variable within a
	// pass share identity so Gradients can resolve them.
	VarRead(v *vars.Variable) Ref

	Add(a, b Ref) Ref
	Sub(a, b Ref) Ref
	Mul(a, b Ref) Ref
	Neg(x Ref) Ref
	Sqrt(x Ref) Ref
	Square(x Ref) Ref
	Abs(x Ref) Ref
	Relu(x Ref) Ref
	Tanh(x Ref) Ref
	Sigmoid(x Ref) Ref
	Scale(x Ref, s float64) Ref
	AddScalar(x Ref, s float64) Ref
	OneMinus(x Ref) Ref
	LessEqual(a, b Ref) Ref
	Where(cond, a, b Ref) Ref
	StopGradient(x Ref) Ref

	MatMul(a, b Ref) Ref
	Conv2D(x, filter Ref, p tensor.ConvParams) Ref

	Sum(x Ref) Ref
	Mean(x Ref) Ref
	MeanAxis(x Ref, axis int, keepDims bool) Ref
	MaxAxis(x Ref, axis int, keepDims bool) Ref
	ArgMaxAxis(x Ref, axis int) Ref
	Softmax(x Ref) Ref
	LogSoftmax(x Ref) Ref

	Reshape(x Ref, shape ...int) Ref
	FlattenBatch(x Ref) Ref
	Concat(axis int, xs ...Ref) Ref
	// SliceCols selects columns [lo, hi) of the last axis (the primitive
	// behind container splitting over flattened representations).
	SliceCols(x Ref, lo, hi int) Ref
	// ShardRows selects shard i of k along the (runtime) leading axis — the
	// tower input splitter of the synchronous multi-GPU strategy.
	ShardRows(x Ref, i, k int) Ref
	TakeAlongLastAxis(x, idx Ref) Ref

	// Stateful embeds a host computation with declared output shape. During
	// a define-by-run build pass the function is NOT invoked; a zero tensor
	// of the declared shape (unknown dims as 1) is produced instead, so
	// artificial build inputs never mutate component state.
	Stateful(name string, outShape []int, fn StatefulFn, ins ...Ref) Ref
	// StatefulMulti is Stateful with several outputs that must observe one
	// consistent invocation (e.g. the fields of one sampled replay batch).
	StatefulMulti(name string, outShapes [][]int, fn StatefulMultiFn, ins ...Ref) []Ref

	// Gradients returns d loss/d v for each variable, as refs. loss must be
	// scalar. Variables the loss does not reach yield zero gradients.
	Gradients(loss Ref, vs []*vars.Variable) []Ref

	// ApplyUpdate applies one fused optimizer update to v in place when
	// evaluated — tensor.UpdateRule.Apply on both backends — keeping the
	// rule's slots and step count in st, and yields norm, the step's global
	// gradient norm. Threading each update's result into the next one's norm
	// leaves a single ref that forces the whole step; on the static backend
	// the norm input also orders every read of the old weights before the
	// write (see graph.ApplyUpdate).
	ApplyUpdate(v *vars.Variable, rule *tensor.UpdateRule, st *tensor.UpdateState, grad, norm Ref) Ref

	// SetDefaultDevice assigns subsequently created operations to a device.
	// The builder brackets each component's graph functions with its device,
	// replacing TF's nested device contexts with explicit per-component
	// assignment.
	SetDefaultDevice(d string)
	// DefaultDevice returns the current default device.
	DefaultDevice() string
}
