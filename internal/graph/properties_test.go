package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rlgraph/internal/tensor"
)

// Property: autodiff is linear — d(a·f)/dx == a · df/dx for random scalars
// and random elementwise programs.
func TestGradientLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := rng.Float64()*4 - 2
		x := tensor.RandNormal(rng, 0, 1, 2, 3)

		gradOf := func(scale float64) *tensor.Tensor {
			g := New()
			xp := Placeholder(g, "x", x.Shape())
			loss := Scale(g, Sum(g, Mul(g, Tanh(g, xp), Exp(g, Neg(g, Square(g, xp))))), scale)
			grads := Gradients(g, loss, []*Node{xp})
			sess := NewSession(g)
			out, err := sess.Run1(grads[0], Feeds{xp: x})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		base := gradOf(1)
		scaled := gradOf(a)
		for i := range base.Data() {
			if math.Abs(scaled.Data()[i]-a*base.Data()[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum rule — grad(f+g) == grad(f) + grad(g).
func TestGradientSumRuleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.RandUniform(rng, 0.2, 2, 4)

		gradOf := func(which int) *tensor.Tensor {
			g := New()
			xp := Placeholder(g, "x", x.Shape())
			f1 := Sum(g, Square(g, xp))
			f2 := Sum(g, Sqrt(g, xp))
			var loss *Node
			switch which {
			case 0:
				loss = f1
			case 1:
				loss = f2
			default:
				loss = Add(g, f1, f2)
			}
			grads := Gradients(g, loss, []*Node{xp})
			sess := NewSession(g)
			out, err := sess.Run1(grads[0], Feeds{xp: x})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		g1, g2, gsum := gradOf(0), gradOf(1), gradOf(2)
		for i := range gsum.Data() {
			if math.Abs(gsum.Data()[i]-(g1.Data()[i]+g2.Data()[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: session evaluation is deterministic — two runs of a pure graph
// with identical feeds agree exactly.
func TestSessionDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.RandNormal(rng, 0, 1, 3, 3)
		g := New()
		xp := Placeholder(g, "x", x.Shape())
		y := Softmax(g, MatMul(g, xp, xp))
		sess := NewSession(g)
		a, err := sess.Run1(y, Feeds{xp: x})
		if err != nil {
			return false
		}
		b, err := sess.Run1(y, Feeds{xp: x})
		if err != nil {
			return false
		}
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: gradient of matmul chains has the shape of the differentiated
// node for random dimensions.
func TestGradientShapeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		x := tensor.RandNormal(rng, 0, 1, m, k)
		w := tensor.RandNormal(rng, 0, 1, k, n)
		g := New()
		xp := Placeholder(g, "x", x.Shape())
		wc := Const(g, w)
		loss := Sum(g, Tanh(g, MatMul(g, xp, wc)))
		grads := Gradients(g, loss, []*Node{xp, wc})
		sess := NewSession(g)
		outs, err := sess.Run(grads, Feeds{xp: x})
		if err != nil {
			return false
		}
		return tensor.SameShape(outs[0].Shape(), x.Shape()) &&
			tensor.SameShape(outs[1].Shape(), w.Shape())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDeepGraphEvaluation(t *testing.T) {
	// Long op chains (e.g. unrolled LSTMs) must evaluate without issue.
	g := New()
	x := Placeholder(g, "x", []int{1})
	n := x
	for i := 0; i < 2000; i++ {
		n = AddScalar(g, n, 1)
	}
	sess := NewSession(g)
	out, err := sess.Run1(n, Feeds{x: tensor.FromSlice([]float64{0}, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[0] != 2000 {
		t.Fatalf("got %g", out.Data()[0])
	}
}

func TestStatefulErrorPropagatesFromSession(t *testing.T) {
	g := New()
	bad := Stateful(g, "bad", []int{}, func([]*tensor.Tensor) (*tensor.Tensor, error) {
		return nil, errBoom{}
	})
	sess := NewSession(g)
	if _, err := sess.Run1(bad, nil); err == nil {
		t.Fatal("stateful error swallowed")
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

// TestEagerGraphEvaluatesOnAdd builds one program into a static graph run by
// a Session and into eager graphs: each node holds its value as soon as Add
// returns, with the same bits; only a recording graph keeps its nodes; and a
// failing node panics with the error Session.Run returns for it.
func TestEagerGraphEvaluatesOnAdd(t *testing.T) {
	x := tensor.FromSlice([]float64{-1, 0.5, 2}, 3)
	fail := false
	prog := func(g *Graph) *Node {
		y := Tanh(g, Mul(g, Const(g, x), ConstScalar(g, 3)))
		return Stateful(g, "host", []int{-1}, func(in []*tensor.Tensor) (*tensor.Tensor, error) {
			if fail {
				return nil, errBoom{}
			}
			return in[0], nil
		}, y)
	}
	static := New()
	want, err := NewSession(static).Run1(prog(static), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, record := range []bool{false, true} {
		g := NewEager(record)
		out := prog(g)
		if !out.Value().Equal(want) || !tensor.SameShape(out.Shape(), []int{3}) {
			t.Fatalf("record=%v: eager %v (shape %v), static %v", record, out.Value(), out.Shape(), want)
		}
		if kept := g.NumNodes(); kept != map[bool]int{false: 0, true: 5}[record] {
			t.Fatalf("record=%v: kept %d nodes", record, kept)
		}
	}

	fail = true
	static = New()
	_, wantErr := NewSession(static).Run1(prog(static), nil)
	if wantErr == nil {
		t.Fatal("stateful error swallowed")
	}
	func() {
		defer func() {
			ee, ok := recover().(*EvalError)
			if !ok || ee.Err.Error() != wantErr.Error() || !errors.Is(ee.Err, errBoom{}) {
				t.Fatalf("eager failure %v, want %v", ee, wantErr)
			}
		}()
		prog(NewEager(true))
	}()
}
