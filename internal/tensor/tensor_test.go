package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	a := New(2, 3)
	if a.Rank() != 2 || a.Size() != 6 {
		t.Fatalf("rank/size = %d/%d, want 2/6", a.Rank(), a.Size())
	}
	a.Set(5, 1, 2)
	if got := a.At(1, 2); got != 5 {
		t.Fatalf("At(1,2) = %g, want 5", got)
	}
	if got := a.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %g, want 0", got)
	}
}

func TestFromSliceValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestScalarAndItem(t *testing.T) {
	s := Scalar(3.5)
	if s.Rank() != 0 || s.Item() != 3.5 {
		t.Fatalf("scalar = %v", s)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := a.Clone()
	b.Data()[0] = 99
	if a.Data()[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeInference(t *testing.T) {
	a := Arange(0, 12)
	b := a.Reshape(3, -1)
	if !SameShape(b.Shape(), []int{3, 4}) {
		t.Fatalf("shape = %v", b.Shape())
	}
	if b.At(2, 3) != 11 {
		t.Fatalf("At(2,3) = %g", b.At(2, 3))
	}
}

func TestReshapeBadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Arange(0, 5).Reshape(2, 3)
}

func TestBroadcastShapes(t *testing.T) {
	cases := []struct {
		a, b, want []int
		err        bool
	}{
		{[]int{2, 3}, []int{3}, []int{2, 3}, false},
		{[]int{2, 1}, []int{1, 4}, []int{2, 4}, false},
		{[]int{}, []int{5}, []int{5}, false},
		{[]int{2, 3}, []int{4}, nil, true},
	}
	for _, c := range cases {
		got, err := BroadcastShapes(c.a, c.b)
		if c.err {
			if err == nil {
				t.Errorf("BroadcastShapes(%v,%v) expected error", c.a, c.b)
			}
			continue
		}
		if err != nil || !SameShape(got, c.want) {
			t.Errorf("BroadcastShapes(%v,%v) = %v, %v; want %v", c.a, c.b, got, err, c.want)
		}
	}
}

func TestAddBroadcastRow(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	got := Add(a, b)
	want := FromSlice([]float64{11, 22, 33, 14, 25, 36}, 2, 3)
	if !got.Equal(want) {
		t.Fatalf("got %v", got)
	}
}

func TestMulBroadcastColumn(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 100}, 2, 1)
	got := Mul(a, b)
	want := FromSlice([]float64{10, 20, 300, 400}, 2, 2)
	if !got.Equal(want) {
		t.Fatalf("got %v", got)
	}
}

func TestWhere(t *testing.T) {
	cond := FromSlice([]float64{1, 0, 1}, 3)
	a := FromSlice([]float64{10, 20, 30}, 3)
	b := FromSlice([]float64{-1, -2, -3}, 3)
	got := Where(cond, a, b)
	want := FromSlice([]float64{10, -2, 30}, 3)
	if !got.Equal(want) {
		t.Fatalf("got %v", got)
	}
}

func TestWhereBroadcastScalarBranches(t *testing.T) {
	cond := FromSlice([]float64{1, 0}, 2)
	got := Where(cond, Scalar(7), Scalar(-7))
	want := FromSlice([]float64{7, -7}, 2)
	if !got.Equal(want) {
		t.Fatalf("got %v", got)
	}
}

func TestUnbroadcastToSumsOverBroadcastDims(t *testing.T) {
	grad := Ones(2, 3)
	got := UnbroadcastTo(grad, []int{3})
	want := FromSlice([]float64{2, 2, 2}, 3)
	if !got.Equal(want) {
		t.Fatalf("got %v", got)
	}
	got2 := UnbroadcastTo(grad, []int{2, 1})
	want2 := FromSlice([]float64{3, 3}, 2, 1)
	if !got2.Equal(want2) {
		t.Fatalf("got %v", got2)
	}
}

// Property: Add(a,b) == Add(b,a) for random same-shaped tensors.
func TestAddCommutativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := []int{1 + rng.Intn(4), 1 + rng.Intn(4)}
		a := RandNormal(rng, 0, 1, shape...)
		b := RandNormal(rng, 0, 1, shape...)
		return Add(a, b).Equal(Add(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: UnbroadcastTo(ones(broadcast(a,b)), a.shape) sums to the number
// of broadcast copies of each element.
func TestUnbroadcastMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(5), 1+rng.Intn(5)
		grad := RandNormal(rng, 0, 1, m, n)
		red := UnbroadcastTo(grad, []int{n})
		return math.Abs(Sum(red).Item()-Sum(grad).Item()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatMul(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !got.Equal(want) {
		t.Fatalf("got %v", got)
	}
}

func TestMatMulTransVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 0, 1, 4, 3)
	b := RandNormal(rng, 0, 1, 4, 5)
	got := MatMulTransA(a, b)
	want := MatMul(Transpose(a), b)
	if !got.AllClose(want, 1e-12) {
		t.Fatal("MatMulTransA mismatch")
	}
	c := RandNormal(rng, 0, 1, 5, 3)
	got2 := MatMulTransB(a.Reshape(4, 3), c)
	want2 := MatMul(a.Reshape(4, 3), Transpose(c))
	if !got2.AllClose(want2, 1e-12) {
		t.Fatal("MatMulTransB mismatch")
	}
}

func TestMatVecAndDot(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]float64{5, 6}, 2)
	got := MatVec(a, v)
	want := FromSlice([]float64{17, 39}, 2)
	if !got.Equal(want) {
		t.Fatalf("got %v", got)
	}
	if Dot(v, v) != 61 {
		t.Fatalf("Dot = %g", Dot(v, v))
	}
}

func TestTransposePerm(t *testing.T) {
	a := Arange(0, 24).Reshape(2, 3, 4)
	b := Transpose(a, 2, 0, 1)
	if !SameShape(b.Shape(), []int{4, 2, 3}) {
		t.Fatalf("shape = %v", b.Shape())
	}
	if b.At(3, 1, 2) != a.At(1, 2, 3) {
		t.Fatal("transpose element mismatch")
	}
}

// Property: transpose twice with the same (self-inverse) perm is identity.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandNormal(rng, 0, 1, 1+rng.Intn(4), 1+rng.Intn(4))
		return Transpose(Transpose(a)).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandNormal(rng, 0, 1, 2, 3)
	b := RandNormal(rng, 0, 1, 2, 5)
	cat := Concat(1, a, b)
	if !SameShape(cat.Shape(), []int{2, 8}) {
		t.Fatalf("shape = %v", cat.Shape())
	}
	parts := Split(cat, 1, 3, 5)
	if !parts[0].Equal(a) || !parts[1].Equal(b) {
		t.Fatal("split does not invert concat")
	}
}

func TestConcatAxis0(t *testing.T) {
	a := Arange(0, 4).Reshape(2, 2)
	b := Arange(4, 8).Reshape(2, 2)
	cat := Concat(0, a, b)
	want := Arange(0, 8).Reshape(4, 2)
	if !cat.Equal(want) {
		t.Fatalf("got %v", cat)
	}
}

func TestStackUnstack(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{3, 4}, 2)
	s := Stack(a, b)
	if !SameShape(s.Shape(), []int{2, 2}) {
		t.Fatalf("shape = %v", s.Shape())
	}
	us := Unstack(s)
	if !us[0].Equal(a) || !us[1].Equal(b) {
		t.Fatal("unstack mismatch")
	}
}

func TestSliceRowsAndRow(t *testing.T) {
	a := Arange(0, 12).Reshape(4, 3)
	s := SliceRows(a, 1, 3)
	want := Arange(3, 9).Reshape(2, 3)
	if !s.Equal(want) {
		t.Fatalf("got %v", s)
	}
	r := Row(a, 2)
	if !r.Equal(Arange(6, 9)) {
		t.Fatalf("row = %v", r)
	}
}

func TestExpandSqueeze(t *testing.T) {
	a := Arange(0, 6).Reshape(2, 3)
	e := ExpandDims(a, 1)
	if !SameShape(e.Shape(), []int{2, 1, 3}) {
		t.Fatalf("shape = %v", e.Shape())
	}
	s := Squeeze(e, 1)
	if !SameShape(s.Shape(), []int{2, 3}) {
		t.Fatalf("shape = %v", s.Shape())
	}
}

func TestTile(t *testing.T) {
	a := Arange(0, 2).Reshape(1, 2)
	got := Tile(a, 3)
	want := FromSlice([]float64{0, 1, 0, 1, 0, 1}, 3, 2)
	if !got.Equal(want) {
		t.Fatalf("got %v", got)
	}
}

func TestSumMeanMaxAxes(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := SumAxis(a, 0, false); !got.Equal(FromSlice([]float64{5, 7, 9}, 3)) {
		t.Fatalf("SumAxis0 = %v", got)
	}
	if got := SumAxis(a, 1, false); !got.Equal(FromSlice([]float64{6, 15}, 2)) {
		t.Fatalf("SumAxis1 = %v", got)
	}
	if got := SumAxis(a, 1, true); !SameShape(got.Shape(), []int{2, 1}) {
		t.Fatalf("keepdims shape = %v", got.Shape())
	}
	if got := MeanAxis(a, 1, false); !got.Equal(FromSlice([]float64{2, 5}, 2)) {
		t.Fatalf("MeanAxis = %v", got)
	}
	if got := MaxAxis(a, 0, false); !got.Equal(FromSlice([]float64{4, 5, 6}, 3)) {
		t.Fatalf("MaxAxis = %v", got)
	}
	if got := MinAxis(a, 1, false); !got.Equal(FromSlice([]float64{1, 4}, 2)) {
		t.Fatalf("MinAxis = %v", got)
	}
}

func TestArgMaxAxis(t *testing.T) {
	a := FromSlice([]float64{1, 9, 3, 8, 2, 7}, 2, 3)
	got := ArgMaxAxis(a, 1)
	want := FromSlice([]float64{1, 0}, 2)
	if !got.Equal(want) {
		t.Fatalf("got %v", got)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandNormal(rng, 0, 3, 4, 5)
	s := Softmax(a)
	for r := 0; r < 4; r++ {
		sum := 0.0
		for j := 0; j < 5; j++ {
			sum += s.At(r, j)
			if s.At(r, j) < 0 {
				t.Fatal("negative softmax")
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %g", r, sum)
		}
	}
}

func TestLogSoftmaxMatchesLogOfSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandNormal(rng, 0, 2, 3, 4)
	got := LogSoftmax(a)
	want := Log(Softmax(a))
	if !got.AllClose(want, 1e-9) {
		t.Fatal("logsoftmax mismatch")
	}
}

func TestSoftmaxStableUnderShift(t *testing.T) {
	a := FromSlice([]float64{1000, 1001, 1002}, 1, 3)
	s := Softmax(a)
	if math.IsNaN(s.At(0, 0)) || math.IsInf(s.At(0, 2), 0) {
		t.Fatal("softmax overflow")
	}
}

func TestGatherRows(t *testing.T) {
	a := Arange(0, 12).Reshape(4, 3)
	idx := FromSlice([]float64{2, 0, 2}, 3)
	got := GatherRows(a, idx)
	want := FromSlice([]float64{6, 7, 8, 0, 1, 2, 6, 7, 8}, 3, 3)
	if !got.Equal(want) {
		t.Fatalf("got %v", got)
	}
}

func TestScatterAddRowsIsAdjointOfGather(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	table := RandNormal(rng, 0, 1, 4, 3)
	idx := FromSlice([]float64{1, 1, 3}, 3)
	g := GatherRows(table, idx)
	// <gather(x), y> == <x, scatter(y)>
	y := RandNormal(rng, 0, 1, 3, 3)
	scattered := New(4, 3)
	ScatterAddRows(scattered, y, idx)
	lhs := Dot(g.Flatten(), y.Flatten())
	rhs := Dot(table.Flatten(), scattered.Flatten())
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint mismatch %g vs %g", lhs, rhs)
	}
}

func TestTakePutAlongLastAxisAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := RandNormal(rng, 0, 1, 5, 4)
	idx := FromSlice([]float64{0, 3, 1, 2, 2}, 5)
	taken := TakeAlongLastAxis(q, idx)
	if taken.Size() != 5 {
		t.Fatalf("size = %d", taken.Size())
	}
	for r := 0; r < 5; r++ {
		if taken.Data()[r] != q.At(r, int(idx.Data()[r])) {
			t.Fatal("take mismatch")
		}
	}
	v := RandNormal(rng, 0, 1, 5)
	put := PutAlongLastAxis([]int{5, 4}, idx, v)
	lhs := Dot(taken, v)
	rhs := Dot(q.Flatten(), put.Flatten())
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint mismatch %g vs %g", lhs, rhs)
	}
}

func TestOneHot(t *testing.T) {
	idx := FromSlice([]float64{2, 0}, 2)
	got := OneHot(idx, 3)
	want := FromSlice([]float64{0, 0, 1, 1, 0, 0}, 2, 3)
	if !got.Equal(want) {
		t.Fatalf("got %v", got)
	}
}

func TestClipScaleNeg(t *testing.T) {
	a := FromSlice([]float64{-5, 0.5, 5}, 3)
	if got := Clip(a, -1, 1); !got.Equal(FromSlice([]float64{-1, 0.5, 1}, 3)) {
		t.Fatalf("clip = %v", got)
	}
	if got := Scale(a, 2); !got.Equal(FromSlice([]float64{-10, 1, 10}, 3)) {
		t.Fatalf("scale = %v", got)
	}
	if got := Neg(a); !got.Equal(FromSlice([]float64{5, -0.5, -5}, 3)) {
		t.Fatalf("neg = %v", got)
	}
}

func TestReluAndGrad(t *testing.T) {
	a := FromSlice([]float64{-1, 0, 2}, 3)
	if got := Relu(a); !got.Equal(FromSlice([]float64{0, 0, 2}, 3)) {
		t.Fatalf("relu = %v", got)
	}
	if got := ReluGrad(a); !got.Equal(FromSlice([]float64{0, 0, 1}, 3)) {
		t.Fatalf("relugrad = %v", got)
	}
}

func TestComparisonOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{2, 2, 2}, 3)
	if got := GreaterEqual(a, b); !got.Equal(FromSlice([]float64{0, 1, 1}, 3)) {
		t.Fatalf("ge = %v", got)
	}
	if got := Less(a, b); !got.Equal(FromSlice([]float64{1, 0, 0}, 3)) {
		t.Fatalf("lt = %v", got)
	}
	if got := EqualElems(a, b); !got.Equal(FromSlice([]float64{0, 1, 0}, 3)) {
		t.Fatalf("eq = %v", got)
	}
}

func TestRandomShapesAndRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := RandUniform(rng, -2, 3, 100)
	for _, v := range u.Data() {
		if v < -2 || v >= 3 {
			t.Fatalf("uniform sample %g out of range", v)
		}
	}
	g := GlorotUniform(rng, 10, 10, 10, 10)
	limit := math.Sqrt(6.0 / 20.0)
	for _, v := range g.Data() {
		if math.Abs(v) > limit {
			t.Fatalf("glorot sample %g beyond limit %g", v, limit)
		}
	}
	p := RandPerm(rng, 10)
	seen := map[int]bool{}
	for _, v := range p.Data() {
		seen[int(v)] = true
	}
	if len(seen) != 10 {
		t.Fatal("perm not a permutation")
	}
}

func TestSliceColsPadColsAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := RandNormal(rng, 0, 1, 4, 6)
	s := SliceCols(x, 2, 5)
	if !SameShape(s.Shape(), []int{4, 3}) {
		t.Fatalf("shape = %v", s.Shape())
	}
	y := RandNormal(rng, 0, 1, 4, 3)
	p := PadCols(y, 2, 6)
	lhs := Dot(s.Flatten(), y.Flatten())
	rhs := Dot(x.Flatten(), p.Flatten())
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint mismatch %g vs %g", lhs, rhs)
	}
}

// TestUnbroadcastIntoMatchesUnbroadcastTo pins the arena-friendly Into form
// bit-for-bit against UnbroadcastTo.
func TestUnbroadcastIntoMatchesUnbroadcastTo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct{ gradShape, target []int }{
		{[]int{32, 4}, []int{1, 4}},
		{[]int{32, 4}, []int{32, 1}},
		{[]int{2, 3, 4}, []int{4}},
		{[]int{2, 3, 4}, []int{3, 1}},
		{[]int{5}, []int{}},
		{[]int{2, 1, 2, 1, 2, 1, 2, 1, 2}, []int{1, 2, 1, 2, 1, 2, 1, 2}}, // rank 9, a suffix: the row path
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
		{[]int{2, 1, 2, 1, 2, 1, 2, 1, 2}, []int{2, 1, 2, 1, 2, 1, 2, 1, 1}}, // rank 9: heap odometer scratch
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

// TestBinaryBroadcastOdometerPinned pins the generic broadcast walk (one
// odometer) against an explicit coordinate-arithmetic reference, across
// suffix, column, middle-1 and mutual-broadcast shapes plus a rank-9 case
// whose odometer scratch comes from the heap.
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
