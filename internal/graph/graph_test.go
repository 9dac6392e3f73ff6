package graph

import (
	"math"
	"math/rand"
	"testing"

	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

func TestPlaceholderFeedAndFetch(t *testing.T) {
	g := New()
	x := Placeholder(g, "x", []int{-1, 2})
	y := Scale(g, x, 3)
	sess := NewSession(g)
	in := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	out, err := sess.Run1(y, Feeds{x: in})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.FromSlice([]float64{3, 6, 9, 12}, 2, 2)) {
		t.Fatalf("got %v", out)
	}
}

func TestUnfedPlaceholderErrors(t *testing.T) {
	g := New()
	x := Placeholder(g, "x", []int{1})
	sess := NewSession(g)
	if _, err := sess.Run1(x, nil); err == nil {
		t.Fatal("expected error for unfed placeholder")
	}
}

func TestMemoizationEvaluatesSharedNodesOnce(t *testing.T) {
	g := New()
	calls := 0
	s := Stateful(g, "counter", []int{}, func([]*tensor.Tensor) (*tensor.Tensor, error) {
		calls++
		return tensor.Scalar(1), nil
	})
	a := Add(g, s, s)
	b := Add(g, a, s)
	sess := NewSession(g)
	if _, err := sess.Run([]*Node{a, b}, nil); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("stateful op evaluated %d times in one run, want 1", calls)
	}
	if _, err := sess.Run1(b, nil); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("stateful op evaluated %d times across two runs, want 2", calls)
	}
}

// sgdStep adds an ApplyUpdate node that moves v by -grad (plain SGD, unit
// step size), yielding norm.
func sgdStep(g *Graph, v *vars.Variable, grad, norm *Node) *Node {
	rule := &tensor.UpdateRule{Kind: tensor.UpdateSGD, LR: 1}
	return ApplyUpdate(g, v, rule, rule.NewState(v.Val.Shape()...), grad, norm)
}

func TestVariablesAndAssign(t *testing.T) {
	g := New()
	v := vars.New("w", tensor.FromSlice([]float64{1, 2}, 2))
	r := VarRead(g, v)
	upd := sgdStep(g, v, Neg(g, r), ConstScalar(g, 0))
	sess := NewSession(g)
	if _, err := sess.Run1(upd, nil); err != nil {
		t.Fatal(err)
	}
	if !v.Val.Equal(tensor.FromSlice([]float64{2, 4}, 2)) {
		t.Fatalf("after the update, v = %v", v.Val)
	}
}

func TestControlDependencies(t *testing.T) {
	g := New()
	v := vars.New("c", tensor.Scalar(0))
	bump := sgdStep(g, v, ConstScalar(g, -1), ConstScalar(g, 0))
	read := Identity(g, VarRead(g, v))
	read.AddDep(bump)
	sess := NewSession(g)
	out, err := sess.Run1(read, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Item() != 1 {
		t.Fatalf("read = %g, want 1 (dep ran first)", out.Item())
	}
}

func TestSessionCounters(t *testing.T) {
	g := New()
	g.SetDefaultDevice("cpu0")
	x := ConstScalar(g, 1)
	y := Add(g, x, x)
	sess := NewSession(g)
	if _, err := sess.Run1(y, nil); err != nil {
		t.Fatal(err)
	}
	if sess.RunCount() != 1 || sess.NodesEvaluated() != 2 {
		t.Fatalf("counters = %d runs, %d nodes", sess.RunCount(), sess.NodesEvaluated())
	}
	if sess.DeviceNodeCounts()["cpu0"] != 2 {
		t.Fatalf("device counts = %v", sess.DeviceNodeCounts())
	}
}

func TestShapeInferenceErrorsPanicAtBuild(t *testing.T) {
	g := New()
	a := Placeholder(g, "a", []int{2, 3})
	b := Placeholder(g, "b", []int{4, 5})
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(g, a, b)
}

func TestStaticShapesPropagate(t *testing.T) {
	g := New()
	x := Placeholder(g, "x", []int{-1, 4})
	w := Const(g, tensor.New(4, 8))
	h := MatMul(g, x, w)
	if !tensor.SameShape(h.Shape(), []int{-1, 8}) {
		t.Fatalf("shape = %v", h.Shape())
	}
	c := Conv2D(g, Placeholder(g, "img", []int{-1, 84, 84, 4}),
		Const(g, tensor.New(8, 8, 4, 16)),
		tensor.ConvParams{StrideH: 4, StrideW: 4})
	if !tensor.SameShape(c.Shape(), []int{-1, 20, 20, 16}) {
		t.Fatalf("conv shape = %v", c.Shape())
	}
}

func TestWhereAndComparisons(t *testing.T) {
	g := New()
	x := Placeholder(g, "x", []int{3})
	y := Where(g, LessEqual(g, ConstScalar(g, 0), x), x, Neg(g, x))
	sess := NewSession(g)
	out, err := sess.Run1(y, Feeds{x: tensor.FromSlice([]float64{-2, 0, 3}, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.FromSlice([]float64{2, 0, 3}, 3)) {
		t.Fatalf("got %v", out)
	}
}

func TestConcatAndGradShapes(t *testing.T) {
	g := New()
	a := Placeholder(g, "a", []int{-1, 2})
	b := Placeholder(g, "b", []int{-1, 3})
	c := Concat(g, 1, a, b)
	if !tensor.SameShape(c.Shape(), []int{-1, 5}) {
		t.Fatalf("shape = %v", c.Shape())
	}
	loss := Sum(g, Square(g, c))
	grads := Gradients(g, loss, []*Node{a, b})
	sess := NewSession(g)
	feeds := Feeds{
		a: tensor.FromSlice([]float64{1, 2}, 1, 2),
		b: tensor.FromSlice([]float64{3, 4, 5}, 1, 3),
	}
	out, err := sess.Run(grads, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(tensor.FromSlice([]float64{2, 4}, 1, 2)) {
		t.Fatalf("da = %v", out[0])
	}
	if !out[1].Equal(tensor.FromSlice([]float64{6, 8, 10}, 1, 3)) {
		t.Fatalf("db = %v", out[1])
	}
}

func TestTakeAlongLastAxisForward(t *testing.T) {
	g := New()
	q := Placeholder(g, "q", []int{-1, 3})
	a := Placeholder(g, "a", []int{-1})
	sel := TakeAlongLastAxis(g, q, a)
	sess := NewSession(g)
	out, err := sess.Run1(sel, Feeds{
		q: tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3),
		a: tensor.FromSlice([]float64{2, 0}, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.FromSlice([]float64{3, 4}, 2)) {
		t.Fatalf("got %v", out)
	}
}

func TestArgMaxAndOneHot(t *testing.T) {
	g := New()
	q := Placeholder(g, "q", []int{-1, 4})
	am := ArgMaxAxis(g, q, -1)
	sess := NewSession(g)
	out, err := sess.Run1(am, Feeds{q: tensor.FromSlice([]float64{1, 9, 2, 3, 8, 1, 1, 1}, 2, 4)})
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.FromSlice([]float64{1, 0}, 2)
	if !out.Equal(want) {
		t.Fatalf("got %v", out)
	}
}

// checkGrad numerically verifies d loss/d x at the given input using central
// differences against the autodiff graph.
func checkGrad(t *testing.T, build func(g *Graph, x *Node) *Node, xval *tensor.Tensor, tol float64) {
	t.Helper()
	g := New()
	x := Placeholder(g, "x", xval.Shape())
	loss := build(g, x)
	grads := Gradients(g, loss, []*Node{x})
	sess := NewSession(g)
	gv, err := sess.Run1(grads[0], Feeds{x: xval})
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-6
	lossAt := func(v *tensor.Tensor) float64 {
		out, err := sess.Run1(loss, Feeds{x: v})
		if err != nil {
			t.Fatal(err)
		}
		return out.Item()
	}
	for i := 0; i < xval.Size(); i++ {
		xp := xval.Clone()
		xp.Data()[i] += eps
		xm := xval.Clone()
		xm.Data()[i] -= eps
		num := (lossAt(xp) - lossAt(xm)) / (2 * eps)
		if math.Abs(num-gv.Data()[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("grad[%d]: numeric %g vs autodiff %g", i, num, gv.Data()[i])
		}
	}
}

func TestGradElementwiseChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandUniform(rng, 0.1, 2, 2, 3)
	checkGrad(t, func(g *Graph, x *Node) *Node {
		return Sum(g, Mul(g, Sqrt(g, x), Exp(g, Neg(g, x))))
	}, x, 1e-5)
}

func TestGradTanhSigmoidRelu(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandNormal(rng, 0.3, 1, 6) // offset to avoid relu kink at 0
	checkGrad(t, func(g *Graph, x *Node) *Node {
		return Sum(g, Add(g, Tanh(g, x), Add(g, Sigmoid(g, x), Relu(g, x))))
	}, x, 1e-5)
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.RandNormal(rng, 0, 1, 3, 4)
	checkGrad(t, func(g *Graph, x *Node) *Node {
		w := Const(g, tensor.RandNormal(rand.New(rand.NewSource(99)), 0, 1, 4, 2))
		return Sum(g, Square(g, MatMul(g, x, w)))
	}, x, 1e-5)
}

func TestGradBroadcastAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.RandNormal(rng, 0, 1, 3)
	checkGrad(t, func(g *Graph, x *Node) *Node {
		m := Const(g, tensor.RandNormal(rand.New(rand.NewSource(98)), 0, 1, 4, 3))
		return Sum(g, Square(g, Add(g, m, x)))
	}, x, 1e-5)
}

func TestGradSoftmaxAndLogSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.RandNormal(rng, 0, 1, 2, 4)
	w := tensor.RandNormal(rng, 0, 1, 2, 4)
	checkGrad(t, func(g *Graph, x *Node) *Node {
		return Sum(g, Mul(g, Softmax(g, x), Const(g, w)))
	}, x, 1e-4)
	checkGrad(t, func(g *Graph, x *Node) *Node {
		return Sum(g, Mul(g, LogSoftmax(g, x), Const(g, w)))
	}, x, 1e-4)
}

func TestGradReductions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.RandNormal(rng, 0, 1, 3, 4)
	checkGrad(t, func(g *Graph, x *Node) *Node {
		return Sum(g, Square(g, MeanAxis(g, x, 1, false)))
	}, x, 1e-5)
	checkGrad(t, func(g *Graph, x *Node) *Node {
		return Mean(g, Square(g, SumAxis(g, x, 0, true)))
	}, x, 1e-5)
}

func TestGradMaxAxisRoutesToArgmax(t *testing.T) {
	x := tensor.FromSlice([]float64{1, 5, 2, 9, 3, 4}, 2, 3)
	checkGrad(t, func(g *Graph, x *Node) *Node {
		return Sum(g, Square(g, MaxAxis(g, x, 1, false)))
	}, x, 1e-5)
}

func TestGradConv2D(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.RandNormal(rng, 0, 1, 1, 5, 5, 2)
	checkGrad(t, func(g *Graph, x *Node) *Node {
		f := Const(g, tensor.RandNormal(rand.New(rand.NewSource(97)), 0, 0.5, 3, 3, 2, 2))
		c := Conv2D(g, x, f, tensor.ConvParams{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1})
		return Sum(g, Square(g, c))
	}, x, 1e-4)
}

func TestGradTakeAlongLastAxis(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := tensor.RandNormal(rng, 0, 1, 4, 3)
	checkGrad(t, func(g *Graph, x *Node) *Node {
		idx := Const(g, tensor.FromSlice([]float64{0, 2, 1, 2}, 4))
		return Sum(g, Square(g, TakeAlongLastAxis(g, x, idx)))
	}, x, 1e-5)
}

func TestGradWhere(t *testing.T) {
	x := tensor.FromSlice([]float64{-2, -1, 1, 2}, 4)
	checkGrad(t, func(g *Graph, x *Node) *Node {
		cond := Const(g, tensor.FromSlice([]float64{1, 0, 1, 0}, 4))
		return Sum(g, Square(g, Where(g, cond, Scale(g, x, 3), x)))
	}, x, 1e-5)
}

func TestGradHuberComposition(t *testing.T) {
	// Huber loss composed from primitives: where(|d|<=1, d²/2, |d|-1/2).
	x := tensor.FromSlice([]float64{-3, -0.5, 0.2, 2}, 4)
	checkGrad(t, func(g *Graph, x *Node) *Node {
		absd := Abs(g, x)
		small := LessEqual(g, absd, ConstScalar(g, 1))
		quad := Scale(g, Square(g, x), 0.5)
		lin := AddScalar(g, absd, -0.5)
		return Sum(g, Where(g, small, quad, lin))
	}, x, 1e-5)
}

func TestGradStopGradientBlocksFlow(t *testing.T) {
	g := New()
	x := Placeholder(g, "x", []int{2})
	loss := Sum(g, Mul(g, x, StopGradient(g, x)))
	grads := Gradients(g, loss, []*Node{x})
	sess := NewSession(g)
	xv := tensor.FromSlice([]float64{3, 4}, 2)
	out, err := sess.Run1(grads[0], Feeds{x: xv})
	if err != nil {
		t.Fatal(err)
	}
	// d/dx x*const(x) = const(x), not 2x.
	if !out.Equal(xv) {
		t.Fatalf("grad = %v, want %v", out, xv)
	}
}

func TestGradientsOfUnreachedNodeAreZero(t *testing.T) {
	g := New()
	x := Placeholder(g, "x", []int{2})
	y := Placeholder(g, "y", []int{2})
	loss := Sum(g, x)
	grads := Gradients(g, loss, []*Node{y})
	sess := NewSession(g)
	out, err := sess.Run1(grads[0], Feeds{
		x: tensor.Ones(2), y: tensor.Ones(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.New(2)) {
		t.Fatalf("grad = %v, want zeros", out)
	}
}

func TestGradReshapeTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := tensor.RandNormal(rng, 0, 1, 2, 6)
	checkGrad(t, func(g *Graph, x *Node) *Node {
		r := Reshape(g, x, -1, 3)
		return Sum(g, Square(g, Reshape(g, r, 3, -1)))
	}, x, 1e-5)
}

func TestGradVariableRead(t *testing.T) {
	g := New()
	v := vars.New("w", tensor.FromSlice([]float64{2, 3}, 2))
	r := VarRead(g, v)
	loss := Sum(g, Square(g, r))
	grads := Gradients(g, loss, []*Node{r})
	sess := NewSession(g)
	out, err := sess.Run1(grads[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.FromSlice([]float64{4, 6}, 2)) {
		t.Fatalf("grad = %v", out)
	}
}

func TestGradSliceCols(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := tensor.RandNormal(rng, 0, 1, 3, 5)
	checkGrad(t, func(g *Graph, x *Node) *Node {
		return Sum(g, Square(g, SliceCols(g, x, 1, 4)))
	}, x, 1e-5)
}
