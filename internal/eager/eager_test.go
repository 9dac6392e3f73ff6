package eager

import (
	"math"
	"math/rand"
	"testing"

	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

func TestNilTapeComputesWithoutRecording(t *testing.T) {
	var tp *Tape
	a := Const(tensor.FromSlice([]float64{1, 2}, 2))
	b := Const(tensor.FromSlice([]float64{3, 4}, 2))
	out := tp.Add(a, b)
	if !out.T.Equal(tensor.FromSlice([]float64{4, 6}, 2)) {
		t.Fatalf("got %v", out.T)
	}
}

func TestBackwardSimpleChain(t *testing.T) {
	tp := NewTape()
	x := input(tp, tensor.FromSlice([]float64{2, 3}, 2))
	loss := tp.Sum(tp.Square(x))
	tp.Backward(loss)
	if !x.Grad().Equal(tensor.FromSlice([]float64{4, 6}, 2)) {
		t.Fatalf("grad = %v", x.Grad())
	}
}

func TestBackwardThroughVariableWatch(t *testing.T) {
	tp := NewTape()
	w := vars.New("w", tensor.FromSlice([]float64{1, -2}, 2))
	wv := tp.Watch(w)
	loss := tp.Sum(tp.Mul(wv, wv))
	tp.Backward(loss)
	if !tp.GradOf(w).Equal(tensor.FromSlice([]float64{2, -4}, 2)) {
		t.Fatalf("grad = %v", tp.GradOf(w))
	}
}

func TestUntrackedBranchGetsNoGradient(t *testing.T) {
	tp := NewTape()
	x := input(tp, tensor.Ones(2))
	c := Const(tensor.Ones(2))
	loss := tp.Sum(tp.Mul(x, c))
	tp.Backward(loss)
	if x.Grad() == nil {
		t.Fatal("tracked input got no gradient")
	}
	if c.Grad() != nil {
		t.Fatal("constant got a gradient")
	}
}

func TestStopGradientDetaches(t *testing.T) {
	tp := NewTape()
	x := input(tp, tensor.FromSlice([]float64{3, 4}, 2))
	loss := tp.Sum(tp.Mul(x, tp.StopGradient(x)))
	tp.Backward(loss)
	if !x.Grad().Equal(tensor.FromSlice([]float64{3, 4}, 2)) {
		t.Fatalf("grad = %v, want x (not 2x)", x.Grad())
	}
}

// checkGradEager numerically verifies gradients of a scalar loss built by fn.
func checkGradEager(t *testing.T, fn func(tp *Tape, x *Value) *Value, xval *tensor.Tensor, tol float64) {
	t.Helper()
	tp := NewTape()
	x := input(tp, xval)
	loss := fn(tp, x)
	tp.Backward(loss)
	g := x.Grad()
	if g == nil {
		t.Fatal("no gradient")
	}
	const eps = 1e-6
	lossAt := func(v *tensor.Tensor) float64 {
		var nilTape *Tape
		return fn(nilTape, Const(v)).T.Item()
	}
	for i := 0; i < xval.Size(); i++ {
		xp := xval.Clone()
		xp.Data()[i] += eps
		xm := xval.Clone()
		xm.Data()[i] -= eps
		num := (lossAt(xp) - lossAt(xm)) / (2 * eps)
		if math.Abs(num-g.Data()[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("grad[%d]: numeric %g vs tape %g", i, num, g.Data()[i])
		}
	}
}

func TestGradElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandUniform(rng, 0.2, 2, 5)
	checkGradEager(t, func(tp *Tape, x *Value) *Value {
		return tp.Sum(tp.Mul(tp.Abs(x), tp.OneMinus(tp.Neg(x))))
	}, x, 1e-5)
	checkGradEager(t, func(tp *Tape, x *Value) *Value {
		return tp.Sum(tp.Add(tp.Tanh(x), tp.Add(tp.Sigmoid(x), tp.Sqrt(x))))
	}, x, 1e-5)
}

func TestGradMatMulEager(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandNormal(rng, 0, 1, 3, 4)
	w := tensor.RandNormal(rng, 0, 1, 4, 2)
	checkGradEager(t, func(tp *Tape, x *Value) *Value {
		return tp.Sum(tp.Square(tp.MatMul(x, Const(w))))
	}, x, 1e-5)
}

func TestGradConvEager(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.RandNormal(rng, 0, 1, 1, 5, 5, 2)
	f := tensor.RandNormal(rng, 0, 0.5, 3, 3, 2, 2)
	p := tensor.ConvParams{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	checkGradEager(t, func(tp *Tape, x *Value) *Value {
		return tp.Sum(tp.Square(tp.Conv2D(x, Const(f), p)))
	}, x, 1e-4)
}

func TestGradSoftmaxesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.RandNormal(rng, 0, 1, 2, 4)
	w := tensor.RandNormal(rng, 0, 1, 2, 4)
	checkGradEager(t, func(tp *Tape, x *Value) *Value {
		return tp.Sum(tp.Mul(tp.Softmax(x), Const(w)))
	}, x, 1e-4)
	checkGradEager(t, func(tp *Tape, x *Value) *Value {
		return tp.Sum(tp.Mul(tp.LogSoftmax(x), Const(w)))
	}, x, 1e-4)
}

func TestGradReductionsEager(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.RandNormal(rng, 0, 1, 3, 4)
	checkGradEager(t, func(tp *Tape, x *Value) *Value {
		return tp.Sum(tp.Square(tp.MeanAxis(x, 1, false)))
	}, x, 1e-5)
	y := tensor.FromSlice([]float64{1, 5, 2, 9, 3, 4}, 2, 3)
	checkGradEager(t, func(tp *Tape, x *Value) *Value {
		return tp.Sum(tp.Square(tp.MaxAxis(x, 1, false)))
	}, y, 1e-5)
}

func TestGradShapeOpsEager(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.RandNormal(rng, 0, 1, 2, 6)
	checkGradEager(t, func(tp *Tape, x *Value) *Value {
		return tp.Sum(tp.Square(tp.Reshape(x, -1, 3)))
	}, x, 1e-5)
	checkGradEager(t, func(tp *Tape, x *Value) *Value {
		parts := tp.Concat(1, x, tp.Scale(x, 2))
		return tp.Sum(tp.Square(parts))
	}, x, 1e-5)
}

func TestGradSelectionsEager(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.RandNormal(rng, 0, 1, 4, 3)
	idx := tensor.FromSlice([]float64{0, 2, 1, 2}, 4)
	checkGradEager(t, func(tp *Tape, x *Value) *Value {
		return tp.Sum(tp.Square(tp.TakeAlongLastAxis(x, Const(idx))))
	}, x, 1e-5)
}

func TestGradWhereClipEager(t *testing.T) {
	x := tensor.FromSlice([]float64{-3, -0.5, 0.2, 2}, 4)
	checkGradEager(t, func(tp *Tape, x *Value) *Value {
		cond := Const(tensor.FromSlice([]float64{1, 0, 1, 0}, 4))
		return tp.Sum(tp.Square(tp.Where(cond, tp.Scale(x, 3), x)))
	}, x, 1e-5)
}

func TestGradHuberEager(t *testing.T) {
	x := tensor.FromSlice([]float64{-3, -0.5, 0.2, 2}, 4)
	checkGradEager(t, func(tp *Tape, x *Value) *Value {
		absd := tp.Abs(x)
		small := tp.LessEqual(absd, ConstScalar(1))
		quad := tp.Scale(tp.Square(x), 0.5)
		lin := tp.AddScalar(absd, -0.5)
		return tp.Sum(tp.Where(small, quad, lin))
	}, x, 1e-5)
}

// TestBackendsAgree cross-checks a full MLP loss gradient between the eager
// tape and the static graph backend — the central unification claim.
func TestBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := tensor.RandNormal(rng, 0, 1, 4, 3)
	w1 := tensor.RandNormal(rng, 0, 0.5, 3, 5)
	w2 := tensor.RandNormal(rng, 0, 0.5, 5, 2)
	target := tensor.RandNormal(rng, 0, 1, 4, 2)

	// Eager.
	tp := NewTape()
	xin := input(tp, x)
	h := tp.Relu(tp.MatMul(xin, Const(w1)))
	out := tp.MatMul(h, Const(w2))
	loss := tp.Mean(tp.Square(tp.Sub(out, Const(target))))
	tp.Backward(loss)
	eagerGrad := xin.Grad()
	eagerLoss := loss.T.Item()

	// Static.
	gg := gtestStaticMLP(t, x, w1, w2, target)
	if math.Abs(eagerLoss-gg.loss) > 1e-9 {
		t.Fatalf("loss mismatch: eager %g vs static %g", eagerLoss, gg.loss)
	}
	if !eagerGrad.AllClose(gg.grad, 1e-9) {
		t.Fatal("gradient mismatch between backends")
	}
}

func TestGradSliceColsEager(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := tensor.RandNormal(rng, 0, 1, 3, 5)
	checkGradEager(t, func(tp *Tape, x *Value) *Value {
		return tp.Sum(tp.Square(tp.SliceCols(x, 1, 4)))
	}, x, 1e-5)
}

// input watches t as a fresh variable, so the tape tracks its gradient.
func input(tp *Tape, t *tensor.Tensor) *Value { return tp.Watch(vars.New("x", t)) }
