package backend

import (
	"fmt"

	"rlgraph/internal/eager"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// EagerOps implements Ops with define-by-run semantics: every call computes
// immediately on concrete tensors. In ModeBuild, inputs are artificial zero
// tensors pushed through for shape/variable inference (the paper's PyTorch
// build strategy), and stateful functions are skipped. A per-pass tape
// supports Gradients; pass a nil tape for inference-only execution (the
// no-grad fast path).
type EagerOps struct {
	Tape *eager.Tape

	mode    Mode
	device  string
	watched map[*vars.Variable]*eager.Value
}

// NewEagerOps returns define-by-run Ops. tape may be nil for no-grad runs.
func NewEagerOps(tape *eager.Tape, mode Mode) *EagerOps {
	return &EagerOps{Tape: tape, mode: mode, watched: make(map[*vars.Variable]*eager.Value)}
}

// Name identifies the backend.
func (e *EagerOps) Name() string { return "define-by-run" }

// Mode reports build vs run.
func (e *EagerOps) Mode() Mode { return e.mode }

func v(x Ref) *eager.Value { return x.(*eager.Value) }

// ShapeOf returns the concrete tensor shape.
func (e *EagerOps) ShapeOf(x Ref) []int { return v(x).T.Shape() }

// Const wraps a tensor.
func (e *EagerOps) Const(t *tensor.Tensor) Ref { return eager.Const(t) }

// ConstScalar wraps a scalar.
func (e *EagerOps) ConstScalar(x float64) Ref { return eager.ConstScalar(x) }

// VarRead watches (once per pass) and returns the variable's value.
func (e *EagerOps) VarRead(vr *vars.Variable) Ref {
	if w, ok := e.watched[vr]; ok {
		return w
	}
	w := e.Tape.Watch(vr)
	e.watched[vr] = w
	return w
}

// Add computes a+b.
func (e *EagerOps) Add(a, b Ref) Ref { return e.Tape.Add(v(a), v(b)) }

// Sub computes a-b.
func (e *EagerOps) Sub(a, b Ref) Ref { return e.Tape.Sub(v(a), v(b)) }

// Mul computes a*b.
func (e *EagerOps) Mul(a, b Ref) Ref { return e.Tape.Mul(v(a), v(b)) }

// Div computes a/b.
func (e *EagerOps) Div(a, b Ref) Ref { return e.Tape.Div(v(a), v(b)) }

// Neg computes -x.
func (e *EagerOps) Neg(x Ref) Ref { return e.Tape.Neg(v(x)) }

// Exp computes e**x.
func (e *EagerOps) Exp(x Ref) Ref { return e.Tape.Exp(v(x)) }

// Log computes ln(x).
func (e *EagerOps) Log(x Ref) Ref { return e.Tape.Log(v(x)) }

// Sqrt computes sqrt(x).
func (e *EagerOps) Sqrt(x Ref) Ref { return e.Tape.Sqrt(v(x)) }

// Square computes x².
func (e *EagerOps) Square(x Ref) Ref { return e.Tape.Square(v(x)) }

// Abs computes |x|.
func (e *EagerOps) Abs(x Ref) Ref { return e.Tape.Abs(v(x)) }

// Relu computes max(x,0).
func (e *EagerOps) Relu(x Ref) Ref { return e.Tape.Relu(v(x)) }

// Tanh computes tanh(x).
func (e *EagerOps) Tanh(x Ref) Ref { return e.Tape.Tanh(v(x)) }

// Sigmoid computes σ(x).
func (e *EagerOps) Sigmoid(x Ref) Ref { return e.Tape.Sigmoid(v(x)) }

// Scale computes x*s.
func (e *EagerOps) Scale(x Ref, s float64) Ref { return e.Tape.Scale(v(x), s) }

// AddScalar computes x+s.
func (e *EagerOps) AddScalar(x Ref, s float64) Ref { return e.Tape.AddScalar(v(x), s) }

// OneMinus computes 1-x.
func (e *EagerOps) OneMinus(x Ref) Ref { return e.Tape.OneMinus(v(x)) }

// Clip computes clip(x, lo, hi).
func (e *EagerOps) Clip(x Ref, lo, hi float64) Ref { return e.Tape.Clip(v(x), lo, hi) }

// Maximum computes max(a,b).
func (e *EagerOps) Maximum(a, b Ref) Ref { return e.Tape.Maximum(v(a), v(b)) }

// Minimum computes min(a,b).
func (e *EagerOps) Minimum(a, b Ref) Ref { return e.Tape.Minimum(v(a), v(b)) }

// GreaterEqual computes a>=b.
func (e *EagerOps) GreaterEqual(a, b Ref) Ref { return e.Tape.GreaterEqual(v(a), v(b)) }

// LessEqual computes a<=b.
func (e *EagerOps) LessEqual(a, b Ref) Ref { return e.Tape.LessEqual(v(a), v(b)) }

// Where computes select(cond, a, b).
func (e *EagerOps) Where(cond, a, b Ref) Ref { return e.Tape.Where(v(cond), v(a), v(b)) }

// StopGradient detaches x.
func (e *EagerOps) StopGradient(x Ref) Ref { return e.Tape.StopGradient(v(x)) }

// MatMul computes a matrix product.
func (e *EagerOps) MatMul(a, b Ref) Ref { return e.Tape.MatMul(v(a), v(b)) }

// Conv2D computes an NHWC convolution.
func (e *EagerOps) Conv2D(x, f Ref, p tensor.ConvParams) Ref {
	return e.Tape.Conv2D(v(x), v(f), p)
}

// Sum reduces all elements.
func (e *EagerOps) Sum(x Ref) Ref { return e.Tape.Sum(v(x)) }

// Mean reduces all elements to their mean.
func (e *EagerOps) Mean(x Ref) Ref { return e.Tape.Mean(v(x)) }

// SumAxis sums along one axis.
func (e *EagerOps) SumAxis(x Ref, axis int, keep bool) Ref {
	return e.Tape.SumAxis(v(x), axis, keep)
}

// MeanAxis averages along one axis.
func (e *EagerOps) MeanAxis(x Ref, axis int, keep bool) Ref {
	return e.Tape.MeanAxis(v(x), axis, keep)
}

// MaxAxis maxes along one axis.
func (e *EagerOps) MaxAxis(x Ref, axis int, keep bool) Ref {
	return e.Tape.MaxAxis(v(x), axis, keep)
}

// ArgMaxAxis computes argmax indices.
func (e *EagerOps) ArgMaxAxis(x Ref, axis int) Ref { return e.Tape.ArgMaxAxis(v(x), axis) }

// Softmax computes a last-axis softmax.
func (e *EagerOps) Softmax(x Ref) Ref { return e.Tape.Softmax(v(x)) }

// LogSoftmax computes a last-axis log-softmax.
func (e *EagerOps) LogSoftmax(x Ref) Ref { return e.Tape.LogSoftmax(v(x)) }

// Reshape reshapes x.
func (e *EagerOps) Reshape(x Ref, shape ...int) Ref { return e.Tape.Reshape(v(x), shape...) }

// FlattenBatch flattens all but the batch dim.
func (e *EagerOps) FlattenBatch(x Ref) Ref { return e.Tape.FlattenBatch(v(x)) }

// Concat concatenates along axis.
func (e *EagerOps) Concat(axis int, xs ...Ref) Ref {
	vsx := make([]*eager.Value, len(xs))
	for i, x := range xs {
		vsx[i] = v(x)
	}
	return e.Tape.Concat(axis, vsx...)
}

// Transpose permutes dimensions.
func (e *EagerOps) Transpose(x Ref, perm ...int) Ref { return e.Tape.Transpose(v(x), perm...) }

// TakeAlongLastAxis selects per-row elements.
func (e *EagerOps) TakeAlongLastAxis(x, idx Ref) Ref {
	return e.Tape.TakeAlongLastAxis(v(x), v(idx))
}

// GatherRows gathers table rows.
func (e *EagerOps) GatherRows(table, idx Ref) Ref { return e.Tape.GatherRows(v(table), v(idx)) }

// OneHot one-hot encodes indices.
func (e *EagerOps) OneHot(idx Ref, depth int) Ref { return e.Tape.OneHot(v(idx), depth) }

// Stateful runs fn immediately in ModeRun. In ModeBuild it is skipped and a
// zero tensor of the declared shape (unknown dims as 1) is returned, so
// artificial build inputs never touch component state.
func (e *EagerOps) Stateful(name string, outShape []int, fn StatefulFn, ins ...Ref) Ref {
	if e.mode == ModeBuild {
		shape := make([]int, len(outShape))
		for i, d := range outShape {
			if d < 0 {
				d = 1
			}
			shape[i] = d
		}
		return eager.Const(tensor.New(shape...))
	}
	ts := make([]*tensor.Tensor, len(ins))
	for i, x := range ins {
		ts[i] = v(x).T
	}
	out, err := fn(ts)
	if err != nil {
		panic(&StatefulError{OpName: name, Err: err})
	}
	return eager.Const(out)
}

// StatefulMulti runs fn immediately in ModeRun; in ModeBuild it returns zero
// tensors of the declared shapes without invoking fn.
func (e *EagerOps) StatefulMulti(name string, outShapes [][]int, fn StatefulMultiFn, ins ...Ref) []Ref {
	out := make([]Ref, len(outShapes))
	if e.mode == ModeBuild {
		for i, os := range outShapes {
			shape := make([]int, len(os))
			for j, d := range os {
				if d < 0 {
					d = 1
				}
				shape[j] = d
			}
			out[i] = eager.Const(tensor.New(shape...))
		}
		return out
	}
	ts := make([]*tensor.Tensor, len(ins))
	for i, x := range ins {
		ts[i] = v(x).T
	}
	res, err := fn(ts)
	if err != nil {
		panic(&StatefulError{OpName: name, Err: err})
	}
	if len(res) != len(outShapes) {
		panic(fmt.Sprintf("backend: stateful %q returned %d outputs, want %d",
			name, len(res), len(outShapes)))
	}
	for i, t := range res {
		out[i] = eager.Const(t)
	}
	return out
}

// Gradients runs the tape backward from loss and returns per-variable grads.
// During the build pass gradients are structural only: zero tensors shaped
// like the variables are returned without running autodiff.
func (e *EagerOps) Gradients(loss Ref, vsl []*vars.Variable) []Ref {
	if e.mode == ModeBuild {
		out := make([]Ref, len(vsl))
		for i, vr := range vsl {
			out[i] = eager.Const(tensor.New(vr.Val.Shape()...))
		}
		return out
	}
	if e.Tape == nil {
		panic("backend: Gradients on a no-grad define-by-run pass")
	}
	e.Tape.Backward(v(loss))
	out := make([]Ref, len(vsl))
	for i, vr := range vsl {
		g := e.Tape.GradOf(vr)
		if g == nil {
			g = tensor.New(vr.Val.Shape()...)
		}
		out[i] = eager.Const(g)
	}
	return out
}

// ApplyUpdate applies the fused optimizer update immediately (in ModeRun).
func (e *EagerOps) ApplyUpdate(vr *vars.Variable, rule *tensor.UpdateRule, st *tensor.UpdateState, grad, norm Ref) Ref {
	if e.mode == ModeRun {
		rule.Apply(vr.Val, st, v(grad).T, v(norm).T.Item())
	}
	return norm
}

// Eval returns the concrete tensor behind x.
func (e *EagerOps) Eval(x Ref) *tensor.Tensor { return v(x).T }

// SetDefaultDevice records the device (define-by-run executes on host; the
// device is kept for accounting parity with the static backend).
func (e *EagerOps) SetDefaultDevice(d string) { e.device = d }

// DefaultDevice returns the recorded device.
func (e *EagerOps) DefaultDevice() string { return e.device }

// SliceCols selects columns [lo, hi) of the last axis.
func (e *EagerOps) SliceCols(x Ref, lo, hi int) Ref { return e.Tape.SliceCols(v(x), lo, hi) }

// ShardRows selects shard i of k along the leading axis.
func (e *EagerOps) ShardRows(x Ref, i, k int) Ref { return e.Tape.ShardRows(v(x), i, k) }
