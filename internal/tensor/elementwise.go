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

// SuffixShape reports whether small broadcasts against big purely by tiling,
// into big's shape: small has no more dims than big, and after stripping its
// leading 1-dims its shape is a suffix of big's. Equal shapes and scalars
// (rank 0 or all-ones shapes) qualify.
func SuffixShape(big, small []int) bool {
	if len(small) > len(big) {
		return false
	}
	for len(small) > 0 && small[0] == 1 {
		small = small[1:]
	}
	return SameShape(big[len(big)-len(small):], small)
}

// ColumnShape reports whether small is big with its last dim cut to 1, so
// that it holds one scalar per row of big: [B,N] against [B,1].
func ColumnShape(big, small []int) bool {
	r := len(big) - 1
	return r >= 0 && len(small) == r+1 && small[r] == 1 && SameShape(big[:r], small[:r])
}

// The two broadcast row paths below run a flat kernel fn on slices of its
// operands, so each element is fn's expression on the operands, in the
// order, of the generic broadcast path; dst has the longer operand's length.

// TileFlat is the row path of a suffix broadcast (SuffixShape): the shorter
// of a and b repeats across the longer, one fn call per repetition.
func TileFlat(fn func(dst, a, b []float64), dst, a, b []float64) {
	n := min(len(a), len(b))
	for r := 0; n > 0 && r < len(dst); r += n {
		fn(dst[r:r+n], tile(a, r, n), tile(b, r, n))
	}
}

// tile returns the n elements of x from r on, or x itself when it is the
// repeating operand.
func tile(x []float64, r, n int) []float64 {
	if len(x) == n {
		return x
	}
	return x[r : r+n]
}

// ColumnFlat is the row path of a column broadcast (ColumnShape): the
// shorter of a and b holds one scalar per row of the longer. Each row's
// scalar is copied across a scratch row, which stands in for that operand.
func ColumnFlat(fn func(dst, a, b []float64), dst, a, b []float64) {
	if len(dst) == 0 {
		return
	}
	colFirst := len(a) < len(b)
	col, full := b, a
	if colFirst {
		col, full = a, b
	}
	n := len(dst) / len(col)
	s := getScratch(n)
	row := s.data
	for r, c := range col {
		for j := range row {
			row[j] = c
		}
		d, f := dst[r*n:(r+1)*n], full[r*n:(r+1)*n]
		if colFirst {
			fn(d, row, f)
		} else {
			fn(d, f, row)
		}
	}
	putScratch(s)
}

// maxOdoRank bounds the stack-resident odometers of the broadcast walks
// below; higher ranks allocate theirs (odoScratch).
const maxOdoRank = 8

// odoScratch returns n zeroed ints for an odometer's strides and index: buf,
// the caller's stack array, when it is long enough, else a fresh slice.
func odoScratch(buf []int, n int) []int {
	if n > len(buf) {
		return make([]int, n)
	}
	return buf[:n]
}

// broadcastOdoStrides fills dst (length len(out)) with the per-output-dim
// flat strides into a tensor of shape src: 0 for padded and size-1 dims,
// which therefore repeat.
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
// no per-element closure call; this generic path remains the reference. It
// visits the output in row-major order and advances both source offsets
// with one odometer.
func binary(a, b *Tensor, fn func(x, y float64) float64) *Tensor {
	shape, err := BroadcastShapes(a.shape, b.shape)
	if err != nil {
		panic(err)
	}
	out := New(shape...)
	r := len(shape)
	var buf [3 * maxOdoRank]int
	odo := odoScratch(buf[:], 3*r)
	as, bs, ix := odo[:r], odo[r:2*r], odo[2*r:]
	broadcastOdoStrides(as, a.shape, shape)
	broadcastOdoStrides(bs, b.shape, shape)
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
//
// AddFlat and ReluFlat, like ReluBackwardInto and Adam's update, hand their
// first vecLen elements to an AVX2 kernel that reproduces the Go loop bit for
// bit (elementwise_amd64.s), at most asmCallElems per call; the Go loop runs
// the rest.

// asmCallElems bounds the elements of one call into a streaming elementwise
// kernel (~20 µs), for the reason asmCallMadds bounds a matmul call.
const asmCallElems = 1 << 16

// vecLen is how many leading elements of an n-element loop the assembly
// kernels take: n rounded down to a multiple of 4 with AVX2, none without.
func vecLen(n int) int {
	if useAVX2 {
		return n &^ 3
	}
	return 0
}

// AddFlat sets dst[i] = a[i] + b[i].
func AddFlat(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	v := vecLen(len(dst))
	for i := 0; i < v; i += asmCallElems {
		addAVX2(&dst[i], &a[i], &b[i], min(asmCallElems, v-i))
	}
	addGo(dst[v:], a[v:], b[v:])
}

// addGo is AddFlat's Go loop.
func addGo(dst, a, b []float64) {
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
// sequence instead of a call per element; on amd64 its NaN is the input's
// with the sign bit cleared, which the assembly kernel reproduces.
func ReluFlat(dst, a []float64) {
	a = a[:len(dst)]
	v := vecLen(len(dst))
	for i := 0; i < v; i += asmCallElems {
		reluAVX2(&dst[i], &a[i], min(asmCallElems, v-i))
	}
	reluGo(dst[v:], a[v:])
}

// reluGo is ReluFlat's Go loop.
func reluGo(dst, a []float64) {
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
	r := len(shape)
	var buf [4 * maxOdoRank]int
	odo := odoScratch(buf[:], 4*r)
	st, ix := odo[:3*r], odo[3*r:]
	for k, t := range []*Tensor{cond, a, b} {
		broadcastOdoStrides(st[k*r:(k+1)*r], t.shape, shape)
	}
	var off [3]int
	for o := range out.data {
		if cond.data[off[0]] != 0 {
			out.data[o] = a.data[off[1]]
		} else {
			out.data[o] = b.data[off[2]]
		}
		for d := r - 1; d >= 0; d-- {
			ix[d]++
			for k := range off {
				off[k] += st[k*r+d]
			}
			if ix[d] < shape[d] {
				break
			}
			for k := range off {
				off[k] -= ix[d] * st[k*r+d]
			}
			ix[d] = 0
		}
	}
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
	AddFlat(dst.data, dst.data, src.data)
}

// AddBroadcastInPlace accumulates src into dst, broadcasting src up to dst's
// shape. Each dst element receives dst[i] += src[bcast(i)], so with dst
// zero-filled the result matches Add(zeros(dstShape), src) exactly (including
// the +0 result of 0 + (-0)). src must be broadcast-compatible with dst and
// must not exceed it in any dimension. When src tiles dst (SuffixShape), each
// tile of dst takes AddFlat(tile, tile, src).
func AddBroadcastInPlace(dst, src *Tensor) {
	if SuffixShape(dst.shape, src.shape) {
		TileFlat(AddFlat, dst.data, dst.data, src.data)
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
	var buf [2 * maxOdoRank]int
	odo := odoScratch(buf[:], 2*r)
	ss, ix := odo[:r], odo[r:]
	broadcastOdoStrides(ss, src.shape, dst.shape)
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
//
// When out's shape tiles grad's (SuffixShape: the bias gradient [B,N]→[N] or
// [1,N]), grad's rows are added into out in ascending order with AddFlat —
// the odometer's accumulation order, without its index arithmetic.
func UnbroadcastInto(out, grad *Tensor) *Tensor {
	if n := len(out.data); n > 0 && SuffixShape(grad.shape, out.shape) {
		for r := 0; r < len(grad.data); r += n {
			AddFlat(out.data, out.data, grad.data[r:r+n])
		}
		return out
	}
	return unbroadcastOdometer(out, grad)
}

// unbroadcastOdometer is UnbroadcastInto for any compatible shapes: it walks
// grad in row-major order and adds each element into the out element it was
// broadcast from.
func unbroadcastOdometer(out, grad *Tensor) *Tensor {
	r := len(grad.shape)
	var buf [2 * maxOdoRank]int
	odo := odoScratch(buf[:], 2*r)
	ts, ix := odo[:r], odo[r:]
	broadcastOdoStrides(ts, out.shape, grad.shape)
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
