package tensor

import (
	"fmt"
	"math"
)

// BroadcastShapes returns the NumPy-style broadcast result of a and b, or an
// error if the shapes are incompatible.
func BroadcastShapes(a, b []int) ([]int, error) {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		da, db := 1, 1
		if i >= n-len(a) {
			da = a[i-(n-len(a))]
		}
		if i >= n-len(b) {
			db = b[i-(n-len(b))]
		}
		switch {
		case da == db:
			out[i] = da
		case da == 1:
			out[i] = db
		case db == 1:
			out[i] = da
		default:
			return nil, fmt.Errorf("tensor: cannot broadcast %v with %v", a, b)
		}
	}
	return out, nil
}

// broadcastIndexer produces, for an output shape, the flat source offset in a
// tensor of shape src for each output element. Dimensions of size 1 in src
// repeat.
type broadcastIndexer struct {
	outShape  []int
	srcStride []int // stride per output dim (0 where src dim == 1)
}

func newBroadcastIndexer(src, out []int) broadcastIndexer {
	pad := len(out) - len(src)
	strides := Strides(src)
	ss := make([]int, len(out))
	for i := range out {
		if i < pad {
			ss[i] = 0
			continue
		}
		if src[i-pad] == 1 {
			ss[i] = 0
		} else {
			ss[i] = strides[i-pad]
		}
	}
	return broadcastIndexer{outShape: out, srcStride: ss}
}

// forEach walks the output space in row-major order invoking fn with the
// source offset for each output position.
func (bi broadcastIndexer) forEach(fn func(outIdx, srcIdx int)) {
	n := NumElems(bi.outShape)
	if n == 0 {
		return
	}
	idx := make([]int, len(bi.outShape))
	src := 0
	for out := 0; out < n; out++ {
		fn(out, src)
		// Increment multi-index.
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			src += bi.srcStride[d]
			if idx[d] < bi.outShape[d] {
				break
			}
			src -= idx[d] * bi.srcStride[d]
			idx[d] = 0
		}
	}
}

// maxOdoRank bounds the stack-resident odometer used by the broadcast walks
// below; higher-rank operands fall back to the allocating indexer path.
const maxOdoRank = 8

// broadcastOdoStrides fills dst (length len(out)) with the per-output-dim
// flat strides into a tensor of shape src, exactly as newBroadcastIndexer
// computes them (0 for padded and size-1 dims), without allocating.
func broadcastOdoStrides(dst []int, src, out []int) {
	pad := len(out) - len(src)
	for i := 0; i < pad; i++ {
		dst[i] = 0
	}
	st := 1
	for i := len(src) - 1; i >= 0; i-- {
		if src[i] == 1 {
			dst[pad+i] = 0
		} else {
			dst[pad+i] = st
		}
		st *= src[i]
	}
}

// binary applies fn elementwise with broadcasting. The hot named ops below
// bypass this for the contiguous same-shape case with flat kernels that pay
// no per-element closure call; this generic path remains the broadcast
// reference. The broadcast walk advances both source offsets with a single
// stack-resident odometer — same element order and arithmetic as the
// indexer-table formulation it replaced, with no per-call offset tables.
func binary(a, b *Tensor, fn func(x, y float64) float64) *Tensor {
	if SameShape(a.shape, b.shape) {
		out := New(a.shape...)
		for i := range out.data {
			out.data[i] = fn(a.data[i], b.data[i])
		}
		return out
	}
	shape, err := BroadcastShapes(a.shape, b.shape)
	if err != nil {
		panic(err)
	}
	out := New(shape...)
	r := len(shape)
	if r > maxOdoRank {
		ai := newBroadcastIndexer(a.shape, shape)
		biB := newBroadcastIndexer(b.shape, shape)
		aoff := make([]int, out.Size())
		ai.forEach(func(o, s int) { aoff[o] = s })
		biB.forEach(func(o, s int) { out.data[o] = fn(a.data[aoff[o]], b.data[s]) })
		return out
	}
	var as, bs, ix [maxOdoRank]int
	broadcastOdoStrides(as[:r], a.shape, shape)
	broadcastOdoStrides(bs[:r], b.shape, shape)
	ai, bi := 0, 0
	for o := range out.data {
		out.data[o] = fn(a.data[ai], b.data[bi])
		for d := r - 1; d >= 0; d-- {
			ix[d]++
			ai += as[d]
			bi += bs[d]
			if ix[d] < shape[d] {
				break
			}
			ai -= ix[d] * as[d]
			bi -= ix[d] * bs[d]
			ix[d] = 0
		}
	}
	return out
}

// Flat kernels: contiguous same-length loops with no closure in the inner
// loop. The graph executor calls these directly (through the op tables in
// internal/graph) so the hot elementwise path is one function call per
// tensor, not one per element. dst may be freshly allocated (all elements
// are overwritten). Each kernel computes exactly the expression the generic
// path computes, in the same operand order, so results are bit-identical.
//
// The arithmetic kernels are 4-way unrolled with explicit local temporaries
// (gonum-style): four independent lanes per iteration amortize bounds checks
// and let the compiler keep the lane values in registers. Elementwise lanes
// are independent, so unrolling cannot change results.

// AddFlat sets dst[i] = a[i] + b[i].
func AddFlat(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d0 := a[i] + b[i]
		d1 := a[i+1] + b[i+1]
		d2 := a[i+2] + b[i+2]
		d3 := a[i+3] + b[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
}

// SubFlat sets dst[i] = a[i] - b[i].
func SubFlat(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] - b[i]
	}
}

// MulFlat sets dst[i] = a[i] * b[i].
func MulFlat(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d0 := a[i] * b[i]
		d1 := a[i+1] * b[i+1]
		d2 := a[i+2] * b[i+2]
		d3 := a[i+3] * b[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] * b[i]
	}
}

// DivFlat sets dst[i] = a[i] / b[i].
func DivFlat(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d0 := a[i] / b[i]
		d1 := a[i+1] / b[i+1]
		d2 := a[i+2] / b[i+2]
		d3 := a[i+3] / b[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] / b[i]
	}
}

// MaximumFlat sets dst[i] = math.Max(a[i], b[i]).
func MaximumFlat(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = math.Max(a[i], b[i])
	}
}

// MinimumFlat sets dst[i] = math.Min(a[i], b[i]).
func MinimumFlat(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = math.Min(a[i], b[i])
	}
}

// GreaterEqualFlat sets dst[i] = 1 where a[i] >= b[i] else 0.
func GreaterEqualFlat(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if a[i] >= b[i] {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

// LessFlat sets dst[i] = 1 where a[i] < b[i] else 0.
func LessFlat(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if a[i] < b[i] {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

// EqualFlat sets dst[i] = 1 where a[i] == b[i] else 0.
func EqualFlat(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if a[i] == b[i] {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

// NegFlat sets dst[i] = -a[i].
func NegFlat(dst, a []float64) {
	a = a[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d0 := -a[i]
		d1 := -a[i+1]
		d2 := -a[i+2]
		d3 := -a[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < len(dst); i++ {
		dst[i] = -a[i]
	}
}

// ExpFlat sets dst[i] = e**a[i].
func ExpFlat(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = math.Exp(a[i])
	}
}

// LogFlat sets dst[i] = ln(a[i]).
func LogFlat(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = math.Log(a[i])
	}
}

// SqrtFlat sets dst[i] = sqrt(a[i]).
func SqrtFlat(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = math.Sqrt(a[i])
	}
}

// SquareFlat sets dst[i] = a[i]*a[i].
func SquareFlat(dst, a []float64) {
	a = a[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d0 := a[i] * a[i]
		d1 := a[i+1] * a[i+1]
		d2 := a[i+2] * a[i+2]
		d3 := a[i+3] * a[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] * a[i]
	}
}

// AbsFlat sets dst[i] = |a[i]|.
func AbsFlat(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = math.Abs(a[i])
	}
}

// ReluFlat sets dst[i] = max(a[i], 0). The builtin follows math.Max's rules
// (NaN stays NaN, -0 becomes +0) but compiles to an inline branch-free
// sequence instead of a call per element.
func ReluFlat(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = max(a[i], 0)
	}
}

// ReluGradFlat sets dst[i] = 1 where a[i] > 0 else 0.
func ReluGradFlat(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		if a[i] > 0 {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

// TanhFlat sets dst[i] = tanh(a[i]).
func TanhFlat(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = math.Tanh(a[i])
	}
}

// SigmoidFlat sets dst[i] = sigmoid(a[i]) via sigmoidPoint.
func SigmoidFlat(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = sigmoidPoint(a[i])
	}
}

// OneMinusFlat sets dst[i] = (-a[i]) + 1 — the exact expression of the
// composed OneMinus op (AddScalar(Neg(a), 1)).
func OneMinusFlat(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = -a[i] + 1
	}
}

// ScaleFlat sets dst[i] = a[i] * s.
func ScaleFlat(dst, a []float64, s float64) {
	a = a[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d0 := a[i] * s
		d1 := a[i+1] * s
		d2 := a[i+2] * s
		d3 := a[i+3] * s
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] * s
	}
}

// AddScalarFlat sets dst[i] = a[i] + s.
func AddScalarFlat(dst, a []float64, s float64) {
	a = a[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d0 := a[i] + s
		d1 := a[i+1] + s
		d2 := a[i+2] + s
		d3 := a[i+3] + s
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] + s
	}
}

// ClipFlat sets dst[i] = math.Max(lo, math.Min(hi, a[i])).
func ClipFlat(dst, a []float64, lo, hi float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = math.Max(lo, math.Min(hi, a[i]))
	}
}

// Add returns a + b with broadcasting.
func Add(a, b *Tensor) *Tensor {
	if SameShape(a.shape, b.shape) {
		out := New(a.shape...)
		AddFlat(out.data, a.data, b.data)
		return out
	}
	return binary(a, b, func(x, y float64) float64 { return x + y })
}

// Sub returns a - b with broadcasting.
func Sub(a, b *Tensor) *Tensor {
	if SameShape(a.shape, b.shape) {
		out := New(a.shape...)
		SubFlat(out.data, a.data, b.data)
		return out
	}
	return binary(a, b, func(x, y float64) float64 { return x - y })
}

// Mul returns a * b elementwise with broadcasting.
func Mul(a, b *Tensor) *Tensor {
	if SameShape(a.shape, b.shape) {
		out := New(a.shape...)
		MulFlat(out.data, a.data, b.data)
		return out
	}
	return binary(a, b, func(x, y float64) float64 { return x * y })
}

// Div returns a / b elementwise with broadcasting.
func Div(a, b *Tensor) *Tensor {
	if SameShape(a.shape, b.shape) {
		out := New(a.shape...)
		DivFlat(out.data, a.data, b.data)
		return out
	}
	return binary(a, b, func(x, y float64) float64 { return x / y })
}

// Pow returns a ** b elementwise with broadcasting.
func Pow(a, b *Tensor) *Tensor { return binary(a, b, math.Pow) }

// Maximum returns the elementwise max with broadcasting.
func Maximum(a, b *Tensor) *Tensor {
	if SameShape(a.shape, b.shape) {
		out := New(a.shape...)
		MaximumFlat(out.data, a.data, b.data)
		return out
	}
	return binary(a, b, math.Max)
}

// Minimum returns the elementwise min with broadcasting.
func Minimum(a, b *Tensor) *Tensor {
	if SameShape(a.shape, b.shape) {
		out := New(a.shape...)
		MinimumFlat(out.data, a.data, b.data)
		return out
	}
	return binary(a, b, math.Min)
}

// GreaterEqual returns 1 where a >= b else 0, with broadcasting.
func GreaterEqual(a, b *Tensor) *Tensor {
	if SameShape(a.shape, b.shape) {
		out := New(a.shape...)
		GreaterEqualFlat(out.data, a.data, b.data)
		return out
	}
	return binary(a, b, func(x, y float64) float64 {
		if x >= y {
			return 1
		}
		return 0
	})
}

// Less returns 1 where a < b else 0, with broadcasting.
func Less(a, b *Tensor) *Tensor {
	if SameShape(a.shape, b.shape) {
		out := New(a.shape...)
		LessFlat(out.data, a.data, b.data)
		return out
	}
	return binary(a, b, func(x, y float64) float64 {
		if x < y {
			return 1
		}
		return 0
	})
}

// EqualElems returns 1 where a == b else 0, with broadcasting.
func EqualElems(a, b *Tensor) *Tensor {
	if SameShape(a.shape, b.shape) {
		out := New(a.shape...)
		EqualFlat(out.data, a.data, b.data)
		return out
	}
	return binary(a, b, func(x, y float64) float64 {
		if x == y {
			return 1
		}
		return 0
	})
}

// Where returns a where cond is nonzero, else b, with broadcasting across all
// three operands.
func Where(cond, a, b *Tensor) *Tensor {
	s1, err := BroadcastShapes(cond.shape, a.shape)
	if err != nil {
		panic(err)
	}
	shape, err := BroadcastShapes(s1, b.shape)
	if err != nil {
		panic(err)
	}
	out := New(shape...)
	if SameShape(cond.shape, shape) && SameShape(a.shape, shape) && SameShape(b.shape, shape) {
		cd, ad, bd := cond.data, a.data, b.data
		for i := range out.data {
			if cd[i] != 0 {
				out.data[i] = ad[i]
			} else {
				out.data[i] = bd[i]
			}
		}
		return out
	}
	coff := make([]int, out.Size())
	aoff := make([]int, out.Size())
	newBroadcastIndexer(cond.shape, shape).forEach(func(o, s int) { coff[o] = s })
	newBroadcastIndexer(a.shape, shape).forEach(func(o, s int) { aoff[o] = s })
	newBroadcastIndexer(b.shape, shape).forEach(func(o, s int) {
		if cond.data[coff[o]] != 0 {
			out.data[o] = a.data[aoff[o]]
		} else {
			out.data[o] = b.data[s]
		}
	})
	return out
}

// Neg returns -a.
func Neg(a *Tensor) *Tensor {
	out := New(a.shape...)
	NegFlat(out.data, a.data)
	return out
}

// Abs returns |a|.
func Abs(a *Tensor) *Tensor {
	out := New(a.shape...)
	AbsFlat(out.data, a.data)
	return out
}

// Exp returns e**a elementwise.
func Exp(a *Tensor) *Tensor {
	out := New(a.shape...)
	ExpFlat(out.data, a.data)
	return out
}

// Log returns ln(a) elementwise.
func Log(a *Tensor) *Tensor {
	out := New(a.shape...)
	LogFlat(out.data, a.data)
	return out
}

// Sqrt returns sqrt(a) elementwise.
func Sqrt(a *Tensor) *Tensor {
	out := New(a.shape...)
	SqrtFlat(out.data, a.data)
	return out
}

// Square returns a*a elementwise.
func Square(a *Tensor) *Tensor {
	out := New(a.shape...)
	SquareFlat(out.data, a.data)
	return out
}

// Relu returns max(a, 0) elementwise.
func Relu(a *Tensor) *Tensor {
	out := New(a.shape...)
	ReluFlat(out.data, a.data)
	return out
}

// ReluGrad returns 1 where a > 0 else 0.
func ReluGrad(a *Tensor) *Tensor {
	out := New(a.shape...)
	ReluGradFlat(out.data, a.data)
	return out
}

// Tanh returns tanh(a) elementwise.
func Tanh(a *Tensor) *Tensor {
	out := New(a.shape...)
	TanhFlat(out.data, a.data)
	return out
}

// sigmoidPoint computes 1/(1+e^-x) in the sign-split form: the exponential
// argument is always non-positive, so math.Exp never overflows. The naive
// form loses all precision for x below about -709 (exp(-x) overflows to +Inf
// and the result collapses to exactly 0); here sigmoid(-1000) correctly
// returns the subnormal e^-1000/(1+e^-1000) ≈ e^-1000.
func sigmoidPoint(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Sigmoid returns 1/(1+e^-a) elementwise, computed in the numerically stable
// sign-split form.
func Sigmoid(a *Tensor) *Tensor {
	out := New(a.shape...)
	SigmoidFlat(out.data, a.data)
	return out
}

// Clip limits every element to [lo, hi].
func Clip(a *Tensor, lo, hi float64) *Tensor {
	out := New(a.shape...)
	ClipFlat(out.data, a.data, lo, hi)
	return out
}

// Scale returns a*s elementwise.
func Scale(a *Tensor, s float64) *Tensor {
	out := New(a.shape...)
	ScaleFlat(out.data, a.data, s)
	return out
}

// AddScalar returns a+s elementwise.
func AddScalar(a *Tensor, s float64) *Tensor {
	out := New(a.shape...)
	AddScalarFlat(out.data, a.data, s)
	return out
}

// AddInPlace accumulates src (same shape) into dst.
func AddInPlace(dst, src *Tensor) {
	if !SameShape(dst.shape, src.shape) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %v vs %v", dst.shape, src.shape))
	}
	for i := range dst.data {
		dst.data[i] += src.data[i]
	}
}

// AddBroadcastInPlace accumulates src into dst, broadcasting src up to dst's
// shape. Each dst element receives dst[i] += src[bcast(i)], so with dst
// zero-filled the result matches Add(zeros(dstShape), src) exactly (including
// the +0 result of 0 + (-0)). src must be broadcast-compatible with dst and
// must not exceed it in any dimension.
func AddBroadcastInPlace(dst, src *Tensor) {
	if SameShape(dst.shape, src.shape) {
		AddInPlace(dst, src)
		return
	}
	pad := len(dst.shape) - len(src.shape)
	if pad < 0 {
		panic(fmt.Sprintf("tensor: AddBroadcastInPlace src %v exceeds dst %v", src.shape, dst.shape))
	}
	for i, d := range src.shape {
		if d != 1 && d != dst.shape[pad+i] {
			panic(fmt.Sprintf("tensor: AddBroadcastInPlace src %v incompatible with dst %v", src.shape, dst.shape))
		}
	}
	r := len(dst.shape)
	if r > maxOdoRank {
		bi := newBroadcastIndexer(src.shape, dst.shape)
		bi.forEach(func(dstIdx, srcIdx int) {
			dst.data[dstIdx] += src.data[srcIdx]
		})
		return
	}
	var ss, ix [maxOdoRank]int
	broadcastOdoStrides(ss[:r], src.shape, dst.shape)
	si := 0
	for d := range dst.data {
		dst.data[d] += src.data[si]
		for k := r - 1; k >= 0; k-- {
			ix[k]++
			si += ss[k]
			if ix[k] < dst.shape[k] {
				break
			}
			si -= ix[k] * ss[k]
			ix[k] = 0
		}
	}
}

// ScaleInPlace multiplies every element of dst by s.
func ScaleInPlace(dst *Tensor, s float64) {
	for i := range dst.data {
		dst.data[i] *= s
	}
}

// Fill sets every element of dst to v.
func Fill(dst *Tensor, v float64) {
	for i := range dst.data {
		dst.data[i] = v
	}
}

// UnbroadcastTo reduces grad (shaped like the broadcast output) back to
// target shape by summing over the broadcast dimensions. This is the standard
// gradient rule for broadcasting ops.
func UnbroadcastTo(grad *Tensor, target []int) *Tensor {
	if SameShape(grad.shape, target) {
		return grad.Clone()
	}
	return UnbroadcastInto(New(target...), grad)
}

// UnbroadcastInto accumulates grad into out, summing the dimensions along
// which out's shape was broadcast to produce grad's. out must be zero-filled
// (or hold a partial sum to accumulate onto) and broadcast-compatible with
// grad. It is the allocation-free core of UnbroadcastTo, for callers that
// provide arena-backed output storage.
func UnbroadcastInto(out, grad *Tensor) *Tensor {
	target := out.shape
	r := len(grad.shape)
	if r > maxOdoRank {
		bi := newBroadcastIndexer(target, grad.shape)
		bi.forEach(func(gradIdx, srcIdx int) {
			out.data[srcIdx] += grad.data[gradIdx]
		})
		return out
	}
	// Same grad-row-major accumulation order as the indexer formulation,
	// via the stack odometer.
	var ts, ix [maxOdoRank]int
	broadcastOdoStrides(ts[:r], target, grad.shape)
	si := 0
	for g := range grad.data {
		out.data[si] += grad.data[g]
		for d := r - 1; d >= 0; d-- {
			ix[d]++
			si += ts[d]
			if ix[d] < grad.shape[d] {
				break
			}
			si -= ix[d] * ts[d]
			ix[d] = 0
		}
	}
	return out
}
