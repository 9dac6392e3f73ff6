package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randn32(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

func bits32Equal(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: elem %d: %g vs %g (bits %#x vs %#x)",
				name, i, got[i], want[i], math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestFlat32KernelsMatchScalarReference pins every unrolled float32 kernel
// against a straight scalar loop over the same float32 arithmetic, across
// sizes that exercise the 4-wide unroll tails (0..9) and a longer run.
func TestFlat32KernelsMatchScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 33}
	for _, n := range sizes {
		a, b := randn32(rng, n), randn32(rng, n)
		for i := range b {
			if b[i] == 0 {
				b[i] = 0.5 // keep Div finite
			}
			if a[i] < 0 {
				a[i] = -a[i] // keep Log/Sqrt real; sign coverage via b
			}
		}
		dst, want := make([]float32, n), make([]float32, n)

		bins := []struct {
			name string
			k    func(dst, a, b []float32)
			f    func(x, y float32) float32
		}{
			{"Add", AddFlat32, func(x, y float32) float32 { return x + y }},
			{"Sub", SubFlat32, func(x, y float32) float32 { return x - y }},
			{"Mul", MulFlat32, func(x, y float32) float32 { return x * y }},
			{"Div", DivFlat32, func(x, y float32) float32 { return x / y }},
			{"Maximum", MaximumFlat32, max32},
			{"Minimum", MinimumFlat32, min32},
			{"GreaterEqual", GreaterEqualFlat32, func(x, y float32) float32 {
				if x >= y {
					return 1
				}
				return 0
			}},
			{"Less", LessFlat32, func(x, y float32) float32 {
				if x < y {
					return 1
				}
				return 0
			}},
			{"Equal", EqualFlat32, func(x, y float32) float32 {
				if x == y {
					return 1
				}
				return 0
			}},
		}
		for _, bk := range bins {
			bk.k(dst, a, b)
			for i := range want {
				want[i] = bk.f(a[i], b[i])
			}
			bits32Equal(t, bk.name, dst, want)
		}

		uns := []struct {
			name string
			k    func(dst, a []float32)
			f    func(x float32) float32
		}{
			{"Neg", NegFlat32, func(x float32) float32 { return -x }},
			{"Exp", ExpFlat32, func(x float32) float32 { return float32(math.Exp(float64(x))) }},
			{"Log", LogFlat32, func(x float32) float32 { return float32(math.Log(float64(x))) }},
			{"Sqrt", SqrtFlat32, func(x float32) float32 { return float32(math.Sqrt(float64(x))) }},
			{"Square", SquareFlat32, func(x float32) float32 { return x * x }},
			{"Abs", AbsFlat32, func(x float32) float32 { return float32(math.Abs(float64(x))) }},
			{"Relu", ReluFlat32, func(x float32) float32 { return max32(x, 0) }},
			{"ReluGrad", ReluGradFlat32, func(x float32) float32 {
				if x > 0 {
					return 1
				}
				return 0
			}},
			{"Tanh", TanhFlat32, func(x float32) float32 { return float32(math.Tanh(float64(x))) }},
			{"Sigmoid", SigmoidFlat32, func(x float32) float32 { return float32(sigmoidPoint(float64(x))) }},
			{"OneMinus", OneMinusFlat32, func(x float32) float32 { return -x + 1 }},
		}
		src := b // includes negatives
		for _, uk := range uns {
			in := src
			if uk.name == "Log" || uk.name == "Sqrt" {
				in = a // non-negative
			}
			uk.k(dst, in)
			for i := range want {
				want[i] = uk.f(in[i])
			}
			bits32Equal(t, uk.name, dst, want)
		}

		ScaleFlat32(dst, b, 1.5)
		for i := range want {
			want[i] = b[i] * 1.5
		}
		bits32Equal(t, "Scale", dst, want)

		AddScalarFlat32(dst, b, -0.25)
		for i := range want {
			want[i] = b[i] + -0.25
		}
		bits32Equal(t, "AddScalar", dst, want)

		ClipFlat32(dst, b, -0.5, 0.5)
		for i := range want {
			want[i] = min32(max32(b[i], -0.5), 0.5)
		}
		bits32Equal(t, "Clip", dst, want)
	}
}

// TestFused32MatchesComposition pins each fused float32 kernel against the
// composition of its constituent flat kernels — same roundings, same bits.
func TestFused32MatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 3, 7, 64} {
		a := FromSlice32(randn32(rng, n), n)
		b := FromSlice32(randn32(rng, n), n)
		c := FromSlice32(randn32(rng, n), n)
		out := New32(n)
		tmp, tmp2 := make([]float32, n), make([]float32, n)
		const s = 0.75

		AddScaledInto32(out, a, b, s)
		ScaleFlat32(tmp, b.Data32(), s)
		AddFlat32(tmp2, a.Data32(), tmp)
		bits32Equal(t, "AddScaled", out.Data32(), tmp2)

		MulAddInto32(out, a, b, c) // a + b*c
		MulFlat32(tmp, b.Data32(), c.Data32())
		AddFlat32(tmp2, a.Data32(), tmp)
		bits32Equal(t, "MulAdd", out.Data32(), tmp2)

		AddMulInto32(out, a, b, c) // a*b + c
		MulFlat32(tmp, a.Data32(), b.Data32())
		AddFlat32(tmp2, tmp, c.Data32())
		bits32Equal(t, "AddMul", out.Data32(), tmp2)

		ReluBackwardInto32(out, a, b)
		ReluGradFlat32(tmp, b.Data32())
		MulFlat32(tmp2, a.Data32(), tmp)
		bits32Equal(t, "ReluBackward", out.Data32(), tmp2)
	}
}

// TestMatMul32MatchesNaiveBitwise pins the blocked/register-tiled float32
// matmul (and its transpose variants) against the i-k-j naive reference:
// identical k-ordering means identical bits, including odd shapes that
// exercise every tail path of the 4x4 tiles and the kBlock remainder.
func TestMatMul32MatchesNaiveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 4}, {3, 5, 7}, {4, 4, 4}, {5, 9, 6},
		{17, 23, 9}, {32, 32, 32}, {65, 1, 33}, {7, 300, 5},
	}
	for _, s := range shapes {
		a := FromSlice32(randn32(rng, s.m*s.k), s.m, s.k)
		b := FromSlice32(randn32(rng, s.k*s.n), s.k, s.n)

		want := MatMulNaive32(a, b)
		bits32Equal(t, "MatMul32", MatMul32(a, b).Data32(), want.Data32())
		bits32Equal(t, "MatMul32Into", MatMul32Into(New32(s.m, s.n), a, b).Data32(), want.Data32())

		// MatMulTransA32(x, y) computes xᵀ x y. With x = aᵀ the product is
		// a x b, so it must match the naive kernel on the untransposed a.
		at := FromSlice32(make([]float32, s.m*s.k), s.k, s.m)
		transposeInto32(at.Data32(), a.Data32(), s.m, s.k)
		bits32Equal(t, "MatMulTransA32", MatMulTransA32(at, b).Data32(), want.Data32())
		bits32Equal(t, "MatMulTransA32Into",
			MatMulTransA32Into(New32(s.m, s.n), at, b).Data32(), want.Data32())

		// a x bᵀ: MatMulTransB32(a, bt) with bt = bᵀ must equal naive(a, b).
		bt := FromSlice32(make([]float32, s.k*s.n), s.n, s.k)
		transposeInto32(bt.Data32(), b.Data32(), s.k, s.n)
		bits32Equal(t, "MatMulTransB32", MatMulTransB32(a, bt).Data32(), want.Data32())
		bits32Equal(t, "MatMulTransB32Into",
			MatMulTransB32Into(New32(s.m, s.n), a, bt).Data32(), want.Data32())
	}
}

// TestConv2D32MatchesNaive pins the tiled float32 conv forward against the
// monolithic im2col reference.
func TestConv2D32MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []struct {
		n, h, w, c, kh, kw, oc int
		p                      ConvParams
	}{
		{1, 5, 5, 1, 3, 3, 2, ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		{2, 8, 6, 3, 3, 3, 4, ConvParams{StrideH: 2, StrideW: 2, PadH: 0, PadW: 0}},
		{1, 7, 7, 2, 5, 5, 3, ConvParams{StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}},
	}
	for _, cs := range cases {
		input := FromSlice32(randn32(rng, cs.n*cs.h*cs.w*cs.c), cs.n, cs.h, cs.w, cs.c)
		filter := FromSlice32(randn32(rng, cs.kh*cs.kw*cs.c*cs.oc), cs.kh, cs.kw, cs.c, cs.oc)
		got := Conv2D32(input, filter, cs.p)
		want := Conv2DNaive32(input, filter, cs.p)
		if !SameShape(got.Shape(), want.Shape()) {
			t.Fatalf("conv shape %v vs %v", got.Shape(), want.Shape())
		}
		bits32Equal(t, "Conv2D32", got.Data32(), want.Data32())
	}
}

// TestConvertRoundTrips pins the conversion API: f64→f32→f64 equals the
// float32 rounding of the source, conversions allocate fresh storage, and
// the dtype accessors panic on the wrong arm.
func TestConvertRoundTrips(t *testing.T) {
	src := FromSlice([]float64{0, -0.1, 1e-8, 3.14159265358979, -2e30, 7}, 2, 3)
	f32 := ToFloat32(src)
	if f32.Dtype() != Float32 || !SameShape(f32.Shape(), src.Shape()) {
		t.Fatalf("ToFloat32 dtype/shape: %v %v", f32.Dtype(), f32.Shape())
	}
	back := ToFloat64(f32)
	if back.Dtype() != Float64 {
		t.Fatalf("ToFloat64 dtype %v", back.Dtype())
	}
	for i, v := range src.Data() {
		if want := float64(float32(v)); back.Data()[i] != want {
			t.Fatalf("round-trip elem %d: %g want %g", i, back.Data()[i], want)
		}
	}
	// ConvertInto in both directions.
	dst32 := New32(2, 3)
	ConvertInto(dst32, src)
	bits32Equal(t, "ConvertInto32", dst32.Data32(), f32.Data32())
	dst64 := New(2, 3)
	ConvertInto(dst64, f32)
	for i := range dst64.Data() {
		if dst64.Data()[i] != back.Data()[i] {
			t.Fatalf("ConvertInto64 elem %d", i)
		}
	}
	// Wrong-arm accessors panic.
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Data on f32", func() { _ = f32.Data() })
	mustPanic("Data32 on f64", func() { _ = src.Data32() })
}

// TestArenaDtypeKeying pins that the run arena keys recycled buffers by
// dtype: a returned float32 tensor is only ever handed back through Get32,
// zero-filled, and float64 Gets never see float32 storage.
func TestArenaDtypeKeying(t *testing.T) {
	a := NewArena()
	t32 := a.Get32(4, 4)
	if t32.Dtype() != Float32 {
		t.Fatalf("Get32 dtype %v", t32.Dtype())
	}
	for i := range t32.Data32() {
		t32.Data32()[i] = 7
	}
	a.Put(t32)
	t64 := a.Get(4, 4)
	if t64.Dtype() != Float64 {
		t.Fatalf("Get after Put(f32) returned dtype %v", t64.Dtype())
	}
	r32 := a.Get32(4, 4)
	if r32.Dtype() != Float32 {
		t.Fatalf("Get32 recycled dtype %v", r32.Dtype())
	}
	for i, v := range r32.Data32() {
		if v != 0 {
			t.Fatalf("recycled f32 buffer not zero-filled at %d: %g", i, v)
		}
	}
}

// TestUnbroadcastIntoMatchesUnbroadcastTo pins the arena-friendly Into form
// (and the rank>8 indexer fallback) bit-for-bit against UnbroadcastTo.
func TestUnbroadcastIntoMatchesUnbroadcastTo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct{ gradShape, target []int }{
		{[]int{32, 4}, []int{1, 4}},
		{[]int{32, 4}, []int{32, 1}},
		{[]int{2, 3, 4}, []int{4}},
		{[]int{2, 3, 4}, []int{3, 1}},
		{[]int{5}, []int{}},
		{[]int{2, 1, 2, 1, 2, 1, 2, 1, 2}, []int{1, 2, 1, 2, 1, 2, 1, 2}}, // rank 9: indexer path
	}
	for _, cs := range cases {
		grad := RandNormal(rng, 0, 1, cs.gradShape...)
		want := UnbroadcastTo(grad, cs.target)
		got := UnbroadcastInto(New(cs.target...), grad)
		if !SameShape(got.Shape(), want.Shape()) {
			t.Fatalf("shape %v vs %v", got.Shape(), want.Shape())
		}
		for i := range got.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(want.Data()[i]) {
				t.Fatalf("grad %v target %v elem %d: %g vs %g", cs.gradShape, cs.target, i, got.Data()[i], want.Data()[i])
			}
		}
	}
}

// TestAddBroadcastInPlaceMatchesAdd pins the accumulate-broadcast helper
// bit-for-bit against the generic Add(zeros, src) formulation it replaced.
func TestAddBroadcastInPlaceMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cases := []struct{ dst, src []int }{
		{[]int{32, 4}, []int{32, 1}},
		{[]int{32, 4}, []int{1, 4}},
		{[]int{32, 4}, []int{}},
		{[]int{2, 3, 4}, []int{3, 1}},
		{[]int{2, 1, 2, 1, 2, 1, 2, 1, 2}, []int{2, 1, 2, 1, 2, 1, 2, 1, 1}}, // rank 9: indexer path
	}
	for _, cs := range cases {
		src := RandNormal(rng, 0, 1, cs.src...)
		want := Add(New(cs.dst...), src)
		got := New(cs.dst...)
		AddBroadcastInPlace(got, src)
		for i := range got.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(want.Data()[i]) {
				t.Fatalf("dst %v src %v elem %d: %g vs %g", cs.dst, cs.src, i, got.Data()[i], want.Data()[i])
			}
		}
	}
}

// TestBinaryBroadcastOdometerPinned pins the generic broadcast walk (the
// stack odometer that replaced the indexer tables) against an explicit
// coordinate-arithmetic reference, across suffix, column, middle-1 and
// mutual-broadcast shapes plus a rank-9 case that takes the fallback path.
func TestBinaryBroadcastOdometerPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ a, b []int }{
		{[]int{32, 4}, []int{32, 1}},
		{[]int{32, 4}, []int{1, 4}},
		{[]int{32, 1}, []int{1, 4}}, // mutual broadcast
		{[]int{2, 3, 4}, []int{3, 1}},
		{[]int{4, 1, 5}, []int{1, 6, 1}},
		{[]int{2, 1, 2, 1, 2, 1, 2, 1, 2}, []int{1, 2, 1, 2, 1, 2, 1, 2, 1}}, // rank 9
	}
	for _, cs := range cases {
		a := RandNormal(rng, 0, 1, cs.a...)
		b := RandNormal(rng, 0, 1, cs.b...)
		got := Sub(a, b) // Sub is order-sensitive: catches operand swaps too
		outShape, err := BroadcastShapes(a.Shape(), b.Shape())
		if err != nil {
			t.Fatal(err)
		}
		if !SameShape(got.Shape(), outShape) {
			t.Fatalf("shape %v want %v", got.Shape(), outShape)
		}
		// Reference: explicit coordinate decomposition per output element.
		coord := make([]int, len(outShape))
		offsetOf := func(t_ *Tensor) int {
			pad := len(outShape) - t_.Rank()
			off, stride := 0, 1
			for d := t_.Rank() - 1; d >= 0; d-- {
				c := coord[pad+d]
				if t_.Shape()[d] == 1 {
					c = 0
				}
				off += c * stride
				stride *= t_.Shape()[d]
			}
			return off
		}
		for i, v := range got.Data() {
			rem := i
			for d := len(outShape) - 1; d >= 0; d-- {
				coord[d] = rem % outShape[d]
				rem /= outShape[d]
			}
			want := a.Data()[offsetOf(a)] - b.Data()[offsetOf(b)]
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("a %v b %v elem %d: %g vs %g", cs.a, cs.b, i, v, want)
			}
		}
	}
}
