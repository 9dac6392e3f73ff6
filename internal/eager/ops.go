package eager

import (
	"rlgraph/internal/tensor"
)

// Add computes a+b with broadcasting.
func (tp *Tape) Add(a, b *Value) *Value {
	out := tensor.Add(a.T, b.T)
	return tp.record(out, func(gy *tensor.Tensor) {
		accum(a, tensor.UnbroadcastTo(gy, a.T.Shape()))
		accum(b, tensor.UnbroadcastTo(gy, b.T.Shape()))
	}, a, b)
}

// Sub computes a-b with broadcasting.
func (tp *Tape) Sub(a, b *Value) *Value {
	out := tensor.Sub(a.T, b.T)
	return tp.record(out, func(gy *tensor.Tensor) {
		accum(a, tensor.UnbroadcastTo(gy, a.T.Shape()))
		accum(b, tensor.UnbroadcastTo(gy.Clone(), b.T.Shape()))
	}, a, b)
}

// Mul computes a*b elementwise with broadcasting.
func (tp *Tape) Mul(a, b *Value) *Value {
	out := tensor.Mul(a.T, b.T)
	return tp.record(out, func(gy *tensor.Tensor) {
		accum(a, tensor.UnbroadcastTo(tensor.Mul(gy, b.T), a.T.Shape()))
		accum(b, tensor.UnbroadcastTo(tensor.Mul(gy, a.T), b.T.Shape()))
	}, a, b)
}

// Neg computes -x.
func (tp *Tape) Neg(x *Value) *Value {
	return tp.record(tensor.Neg(x.T), func(gy *tensor.Tensor) {
		accum(x, tensor.Neg(gy))
	}, x)
}

// Sqrt computes sqrt(x).
func (tp *Tape) Sqrt(x *Value) *Value {
	out := tensor.Sqrt(x.T)
	return tp.record(out, func(gy *tensor.Tensor) {
		accum(x, tensor.Div(gy, tensor.Scale(out, 2)))
	}, x)
}

// Square computes x*x.
func (tp *Tape) Square(x *Value) *Value {
	return tp.record(tensor.Square(x.T), func(gy *tensor.Tensor) {
		accum(x, tensor.Mul(gy, tensor.Scale(x.T, 2)))
	}, x)
}

// Abs computes |x| with subgradient sign(x).
func (tp *Tape) Abs(x *Value) *Value {
	return tp.record(tensor.Abs(x.T), func(gy *tensor.Tensor) {
		sign := tensor.Sub(tensor.GreaterEqual(x.T, tensor.Scalar(0)),
			tensor.GreaterEqual(tensor.Neg(x.T), tensor.Scalar(0)))
		accum(x, tensor.Mul(gy, sign))
	}, x)
}

// Relu computes max(x,0).
func (tp *Tape) Relu(x *Value) *Value {
	return tp.record(tensor.Relu(x.T), func(gy *tensor.Tensor) {
		accum(x, tensor.Mul(gy, tensor.ReluGrad(x.T)))
	}, x)
}

// Tanh computes tanh(x).
func (tp *Tape) Tanh(x *Value) *Value {
	out := tensor.Tanh(x.T)
	return tp.record(out, func(gy *tensor.Tensor) {
		accum(x, tensor.Mul(gy, tensor.AddScalar(tensor.Neg(tensor.Square(out)), 1)))
	}, x)
}

// Sigmoid computes 1/(1+e^-x).
func (tp *Tape) Sigmoid(x *Value) *Value {
	out := tensor.Sigmoid(x.T)
	return tp.record(out, func(gy *tensor.Tensor) {
		d := tensor.Mul(out, tensor.AddScalar(tensor.Neg(out), 1))
		accum(x, tensor.Mul(gy, d))
	}, x)
}

// Scale computes x*s.
func (tp *Tape) Scale(x *Value, s float64) *Value {
	return tp.record(tensor.Scale(x.T, s), func(gy *tensor.Tensor) {
		accum(x, tensor.Scale(gy, s))
	}, x)
}

// AddScalar computes x+s.
func (tp *Tape) AddScalar(x *Value, s float64) *Value {
	return tp.record(tensor.AddScalar(x.T, s), func(gy *tensor.Tensor) {
		accum(x, gy)
	}, x)
}

// OneMinus computes 1-x.
func (tp *Tape) OneMinus(x *Value) *Value {
	return tp.record(tensor.AddScalar(tensor.Neg(x.T), 1), func(gy *tensor.Tensor) {
		accum(x, tensor.Neg(gy))
	}, x)
}

// LessEqual returns the 0/1 comparison (non-differentiable).
func (tp *Tape) LessEqual(a, b *Value) *Value {
	return Const(tensor.GreaterEqual(b.T, a.T))
}

// Where selects a where cond != 0 else b; gradients flow into the selected
// branch.
func (tp *Tape) Where(cond, a, b *Value) *Value {
	out := tensor.Where(cond.T, a.T, b.T)
	return tp.record(out, func(gy *tensor.Tensor) {
		zero := tensor.New(gy.Shape()...)
		accum(a, tensor.UnbroadcastTo(tensor.Where(cond.T, gy, zero), a.T.Shape()))
		accum(b, tensor.UnbroadcastTo(tensor.Where(cond.T, zero, gy), b.T.Shape()))
	}, a, b)
}

// StopGradient returns x's value detached from the tape.
func (tp *Tape) StopGradient(x *Value) *Value { return Const(x.T) }

// MatMul computes [m,k] x [k,n].
func (tp *Tape) MatMul(a, b *Value) *Value {
	out := tensor.MatMul(a.T, b.T)
	return tp.record(out, func(gy *tensor.Tensor) {
		accum(a, tensor.MatMulTransB(gy, b.T))
		accum(b, tensor.MatMulTransA(a.T, gy))
	}, a, b)
}

// Conv2D computes an NHWC convolution.
func (tp *Tape) Conv2D(x, filter *Value, p tensor.ConvParams) *Value {
	out := tensor.Conv2D(x.T, filter.T, p)
	return tp.record(out, func(gy *tensor.Tensor) {
		accum(x, tensor.Conv2DBackwardInput(gy, filter.T, x.T.Shape(), p))
		accum(filter, tensor.Conv2DBackwardFilter(x.T, gy, filter.T.Shape(), p))
	}, x, filter)
}

// Sum reduces all elements to a scalar.
func (tp *Tape) Sum(x *Value) *Value {
	return tp.record(tensor.Sum(x.T), func(gy *tensor.Tensor) {
		accum(x, tensor.Full(gy.Item(), x.T.Shape()...))
	}, x)
}

// Mean reduces all elements to their scalar mean.
func (tp *Tape) Mean(x *Value) *Value {
	return tp.record(tensor.Mean(x.T), func(gy *tensor.Tensor) {
		accum(x, tensor.Full(gy.Item()/float64(x.T.Size()), x.T.Shape()...))
	}, x)
}

// MeanAxis averages along one axis.
func (tp *Tape) MeanAxis(x *Value, axis int, keepDims bool) *Value {
	return tp.record(tensor.MeanAxis(x.T, axis, keepDims), func(gy *tensor.Tensor) {
		accum(x, expandReduceGrad(gy, x.T, axis, keepDims, true))
	}, x)
}

// MaxAxis takes the max along one axis; gradient routes to maximal elements
// (ties duplicated).
func (tp *Tape) MaxAxis(x *Value, axis int, keepDims bool) *Value {
	out := tensor.MaxAxis(x.T, axis, keepDims)
	return tp.record(out, func(gy *tensor.Tensor) {
		full := tensor.MaxAxis(x.T, axis, true)
		mask := tensor.EqualElems(x.T, full)
		accum(x, tensor.Mul(expandReduceGrad(gy, x.T, axis, keepDims, false), mask))
	}, x)
}

func expandReduceGrad(gy, x *tensor.Tensor, axis int, keepDims, mean bool) *tensor.Tensor {
	a := axis
	if a < 0 {
		a += x.Rank()
	}
	if !keepDims {
		gy = tensor.ExpandDims(gy, a)
	}
	out := tensor.Add(tensor.New(x.Shape()...), gy)
	if mean {
		tensor.ScaleInPlace(out, 1/float64(x.Dim(a)))
	}
	return out
}

// ArgMaxAxis returns argmax indices (non-differentiable).
func (tp *Tape) ArgMaxAxis(x *Value, axis int) *Value {
	return Const(tensor.ArgMaxAxis(x.T, axis))
}

// Softmax computes a last-axis softmax.
func (tp *Tape) Softmax(x *Value) *Value {
	out := tensor.Softmax(x.T)
	return tp.record(out, func(gy *tensor.Tensor) {
		inner := tensor.SumAxis(tensor.Mul(gy, out), -1, true)
		accum(x, tensor.Mul(out, tensor.Sub(gy, inner)))
	}, x)
}

// LogSoftmax computes a last-axis log-softmax.
func (tp *Tape) LogSoftmax(x *Value) *Value {
	out := tensor.LogSoftmax(x.T)
	return tp.record(out, func(gy *tensor.Tensor) {
		sm := tensor.Exp(out)
		inner := tensor.SumAxis(gy, -1, true)
		accum(x, tensor.Sub(gy, tensor.Mul(sm, inner)))
	}, x)
}

// Reshape reshapes x (one -1 dim allowed).
func (tp *Tape) Reshape(x *Value, shape ...int) *Value {
	return tp.record(x.T.Reshape(shape...), func(gy *tensor.Tensor) {
		accum(x, gy.Reshape(x.T.Shape()...))
	}, x)
}

// FlattenBatch reshapes [b, ...] to [b, features].
func (tp *Tape) FlattenBatch(x *Value) *Value {
	if x.T.Rank() < 2 {
		return x
	}
	return tp.Reshape(x, x.T.Dim(0), -1)
}

// Concat concatenates along axis.
func (tp *Tape) Concat(axis int, xs ...*Value) *Value {
	ts := make([]*tensor.Tensor, len(xs))
	for i, v := range xs {
		ts[i] = v.T
	}
	out := tensor.Concat(axis, ts...)
	return tp.record(out, func(gy *tensor.Tensor) {
		a := axis
		if a < 0 {
			a += gy.Rank()
		}
		sizes := make([]int, len(xs))
		for i, v := range xs {
			sizes[i] = v.T.Dim(a)
		}
		parts := tensor.Split(gy, a, sizes...)
		for i, v := range xs {
			accum(v, parts[i])
		}
	}, xs...)
}

// TakeAlongLastAxis selects out[i] = x[i, idx[i]].
func (tp *Tape) TakeAlongLastAxis(x, idx *Value) *Value {
	out := tensor.TakeAlongLastAxis(x.T, idx.T)
	return tp.record(out, func(gy *tensor.Tensor) {
		accum(x, tensor.PutAlongLastAxis(x.T.Shape(), idx.T, gy))
	}, x)
}

// SliceCols selects columns [lo, hi) of the last axis.
func (tp *Tape) SliceCols(x *Value, lo, hi int) *Value {
	out := tensor.SliceCols(x.T, lo, hi)
	return tp.record(out, func(gy *tensor.Tensor) {
		total := x.T.Dim(x.T.Rank() - 1)
		accum(x, tensor.PadCols(gy, lo, total))
	}, x)
}

// ShardRows selects shard i of k along the leading axis.
func (tp *Tape) ShardRows(x *Value, i, k int) *Value {
	out := tensor.ShardRows(x.T, i, k)
	return tp.record(out, func(gy *tensor.Tensor) {
		accum(x, tensor.PadRowsShard(gy, i, k, x.T.Dim(0)))
	}, x)
}
