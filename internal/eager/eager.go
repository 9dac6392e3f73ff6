// Package eager implements the define-by-run backend — the PyTorch
// substitute in this reproduction. Operations execute immediately on
// tensors; when a Tape is recording, each op also appends a backward closure
// so Backward can later run reverse-mode autodiff over the recorded program.
// Variables are plain Go tensors (cf. the paper's observation that PyTorch
// builds are cheap because "variables are native Python lists or NumPy
// arrays").
package eager

import (
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// Value is an eager tensor, optionally attached to a tape for autodiff.
type Value struct {
	// T is the concrete tensor value.
	T *tensor.Tensor

	grad    *tensor.Tensor
	back    func(gy *tensor.Tensor)
	tracked bool
	v       *vars.Variable // set when this value watches a variable
}

// Grad returns the accumulated gradient after Backward (nil before).
func (v *Value) Grad() *tensor.Tensor { return v.grad }

// Tape records executed operations for reverse-mode autodiff. A nil *Tape is
// valid and means "inference mode": ops compute values without recording,
// which is the define-by-run fast path used for acting.
type Tape struct {
	values []*Value
}

// NewTape returns an empty recording tape.
func NewTape() *Tape { return &Tape{} }

// Const wraps a tensor as an untracked value.
func Const(t *tensor.Tensor) *Value { return &Value{T: t} }

// ConstScalar wraps a scalar as an untracked value.
func ConstScalar(x float64) *Value { return Const(tensor.Scalar(x)) }

// Watch returns a tracked value reading variable v; gradients accumulate on
// the returned value during Backward.
func (tp *Tape) Watch(v *vars.Variable) *Value {
	val := &Value{T: v.Val, v: v}
	if tp != nil {
		val.tracked = true
		tp.values = append(tp.values, val)
	}
	return val
}

// record creates the op output value, registering the backward closure when
// any parent is tracked.
func (tp *Tape) record(out *tensor.Tensor, back func(gy *tensor.Tensor), parents ...*Value) *Value {
	val := &Value{T: out}
	if tp == nil {
		return val
	}
	tracked := false
	for _, p := range parents {
		if p.tracked {
			tracked = true
			break
		}
	}
	if !tracked {
		return val
	}
	val.tracked = true
	val.back = back
	tp.values = append(tp.values, val)
	return val
}

// accum adds g into p's gradient if p is tracked.
func accum(p *Value, g *tensor.Tensor) {
	if p == nil || !p.tracked {
		return
	}
	if p.grad == nil {
		p.grad = g.Clone()
		return
	}
	tensor.AddInPlace(p.grad, g)
}

// Backward runs reverse-mode autodiff from the scalar loss, populating Grad
// on every tracked value (including watched variables).
func (tp *Tape) Backward(loss *Value) {
	if tp == nil || !loss.tracked {
		return
	}
	loss.grad = tensor.Ones(loss.T.Shape()...)
	// Values were appended in execution order; reverse order is a valid
	// topological order for the backward pass.
	for i := len(tp.values) - 1; i >= 0; i-- {
		v := tp.values[i]
		if v.grad == nil || v.back == nil {
			continue
		}
		v.back(v.grad)
	}
}

// GradOf returns the accumulated gradient of the watched variable v after
// Backward, or nil.
func (tp *Tape) GradOf(v *vars.Variable) *tensor.Tensor {
	if tp == nil {
		return nil
	}
	for _, val := range tp.values {
		if val.v == v {
			return val.grad
		}
	}
	return nil
}
