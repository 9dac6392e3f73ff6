package backend

import (
	"rlgraph/internal/graph"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// StaticOps implements Ops by emitting nodes into a dataflow graph. Refs are
// *graph.Node values; nothing is computed until a Session runs the graph.
type StaticOps struct {
	G *graph.Graph

	varReads map[*vars.Variable]*graph.Node
}

// NewStaticOps returns an Ops that builds into g.
func NewStaticOps(g *graph.Graph) *StaticOps {
	return &StaticOps{G: g, varReads: make(map[*vars.Variable]*graph.Node)}
}

// Name identifies the backend.
func (s *StaticOps) Name() string { return "static" }

func n(x Ref) *graph.Node { return x.(*graph.Node) }

// ShapeOf returns the node's static shape.
func (s *StaticOps) ShapeOf(x Ref) []int { return n(x).Shape() }

// Const emits a constant node.
func (s *StaticOps) Const(t *tensor.Tensor) Ref { return graph.Const(s.G, t) }

// ConstScalar emits a scalar constant node.
func (s *StaticOps) ConstScalar(v float64) Ref { return graph.ConstScalar(s.G, v) }

// VarRead emits (or reuses) the read node for v.
func (s *StaticOps) VarRead(v *vars.Variable) Ref {
	if r, ok := s.varReads[v]; ok {
		return r
	}
	r := graph.VarRead(s.G, v)
	s.varReads[v] = r
	return r
}

// Add emits a+b.
func (s *StaticOps) Add(a, b Ref) Ref { return graph.Add(s.G, n(a), n(b)) }

// Sub emits a-b.
func (s *StaticOps) Sub(a, b Ref) Ref { return graph.Sub(s.G, n(a), n(b)) }

// Mul emits a*b.
func (s *StaticOps) Mul(a, b Ref) Ref { return graph.Mul(s.G, n(a), n(b)) }

// Neg emits -x.
func (s *StaticOps) Neg(x Ref) Ref { return graph.Neg(s.G, n(x)) }

// Sqrt emits sqrt(x).
func (s *StaticOps) Sqrt(x Ref) Ref { return graph.Sqrt(s.G, n(x)) }

// Square emits x².
func (s *StaticOps) Square(x Ref) Ref { return graph.Square(s.G, n(x)) }

// Abs emits |x|.
func (s *StaticOps) Abs(x Ref) Ref { return graph.Abs(s.G, n(x)) }

// Relu emits max(x,0).
func (s *StaticOps) Relu(x Ref) Ref { return graph.Relu(s.G, n(x)) }

// Tanh emits tanh(x).
func (s *StaticOps) Tanh(x Ref) Ref { return graph.Tanh(s.G, n(x)) }

// Sigmoid emits σ(x).
func (s *StaticOps) Sigmoid(x Ref) Ref { return graph.Sigmoid(s.G, n(x)) }

// Scale emits x*s.
func (s *StaticOps) Scale(x Ref, v float64) Ref { return graph.Scale(s.G, n(x), v) }

// AddScalar emits x+s.
func (s *StaticOps) AddScalar(x Ref, v float64) Ref { return graph.AddScalar(s.G, n(x), v) }

// OneMinus emits 1-x.
func (s *StaticOps) OneMinus(x Ref) Ref { return graph.OneMinus(s.G, n(x)) }

// LessEqual emits a<=b.
func (s *StaticOps) LessEqual(a, b Ref) Ref { return graph.LessEqual(s.G, n(a), n(b)) }

// Where emits select(cond, a, b).
func (s *StaticOps) Where(cond, a, b Ref) Ref { return graph.Where(s.G, n(cond), n(a), n(b)) }

// StopGradient emits a gradient barrier.
func (s *StaticOps) StopGradient(x Ref) Ref { return graph.StopGradient(s.G, n(x)) }

// MatMul emits a matrix product.
func (s *StaticOps) MatMul(a, b Ref) Ref { return graph.MatMul(s.G, n(a), n(b)) }

// Conv2D emits an NHWC convolution.
func (s *StaticOps) Conv2D(x, f Ref, p tensor.ConvParams) Ref {
	return graph.Conv2D(s.G, n(x), n(f), p)
}

// Sum emits a full reduction.
func (s *StaticOps) Sum(x Ref) Ref { return graph.Sum(s.G, n(x)) }

// Mean emits a full mean reduction.
func (s *StaticOps) Mean(x Ref) Ref { return graph.Mean(s.G, n(x)) }

// MeanAxis emits a single-axis mean.
func (s *StaticOps) MeanAxis(x Ref, axis int, keep bool) Ref {
	return graph.MeanAxis(s.G, n(x), axis, keep)
}

// MaxAxis emits a single-axis max.
func (s *StaticOps) MaxAxis(x Ref, axis int, keep bool) Ref {
	return graph.MaxAxis(s.G, n(x), axis, keep)
}

// ArgMaxAxis emits an argmax.
func (s *StaticOps) ArgMaxAxis(x Ref, axis int) Ref { return graph.ArgMaxAxis(s.G, n(x), axis) }

// Softmax emits a last-axis softmax.
func (s *StaticOps) Softmax(x Ref) Ref { return graph.Softmax(s.G, n(x)) }

// LogSoftmax emits a last-axis log-softmax.
func (s *StaticOps) LogSoftmax(x Ref) Ref { return graph.LogSoftmax(s.G, n(x)) }

// Reshape emits a reshape.
func (s *StaticOps) Reshape(x Ref, shape ...int) Ref { return graph.Reshape(s.G, n(x), shape...) }

// FlattenBatch emits a batch-preserving flatten.
func (s *StaticOps) FlattenBatch(x Ref) Ref { return graph.FlattenBatch(s.G, n(x)) }

// Concat emits a concatenation.
func (s *StaticOps) Concat(axis int, xs ...Ref) Ref {
	ns := make([]*graph.Node, len(xs))
	for i, x := range xs {
		ns[i] = n(x)
	}
	return graph.Concat(s.G, axis, ns...)
}

// TakeAlongLastAxis emits per-row selection.
func (s *StaticOps) TakeAlongLastAxis(x, idx Ref) Ref {
	return graph.TakeAlongLastAxis(s.G, n(x), n(idx))
}

// Stateful emits a host-computation node.
func (s *StaticOps) Stateful(name string, outShape []int, fn StatefulFn, ins ...Ref) Ref {
	ns := make([]*graph.Node, len(ins))
	for i, x := range ins {
		ns[i] = n(x)
	}
	return graph.Stateful(s.G, name, outShape, graph.StatefulFunc(fn), ns...)
}

// StatefulMulti emits a multi-output host computation.
func (s *StaticOps) StatefulMulti(name string, outShapes [][]int, fn StatefulMultiFn, ins ...Ref) []Ref {
	ns := make([]*graph.Node, len(ins))
	for i, x := range ins {
		ns[i] = n(x)
	}
	nodes := graph.StatefulMulti(s.G, name, outShapes, graph.StatefulMultiFunc(fn), ns...)
	out := make([]Ref, len(nodes))
	for i, nd := range nodes {
		out[i] = nd
	}
	return out
}

// Gradients emits gradient sub-graphs for the given variables.
func (s *StaticOps) Gradients(loss Ref, vs []*vars.Variable) []Ref {
	wrt := make([]*graph.Node, len(vs))
	for i, v := range vs {
		wrt[i] = n(s.VarRead(v))
	}
	gs := graph.Gradients(s.G, n(loss), wrt)
	out := make([]Ref, len(gs))
	for i, g := range gs {
		out[i] = g
	}
	return out
}

// ApplyUpdate emits a fused in-place optimizer update of v.
func (s *StaticOps) ApplyUpdate(v *vars.Variable, rule *tensor.UpdateRule, st *tensor.UpdateState, grad, norm Ref) Ref {
	return graph.ApplyUpdate(s.G, v, rule, st, n(grad), n(norm))
}

// SetDefaultDevice routes new nodes to a device.
func (s *StaticOps) SetDefaultDevice(d string) { s.G.SetDefaultDevice(d) }

// DefaultDevice returns the graph's current default device.
func (s *StaticOps) DefaultDevice() string { return s.G.DefaultDevice() }

// SliceCols emits a last-axis column slice.
func (s *StaticOps) SliceCols(x Ref, lo, hi int) Ref { return graph.SliceCols(s.G, n(x), lo, hi) }

// ShardRows emits a leading-axis batch shard.
func (s *StaticOps) ShardRows(x Ref, i, k int) Ref { return graph.ShardRows(s.G, n(x), i, k) }
