package backend

import (
	"errors"
	"math/rand"
	"testing"

	"rlgraph/internal/eager"
	"rlgraph/internal/graph"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

func TestStaticOpsEmitNodesWithoutComputing(t *testing.T) {
	g := graph.New()
	ops := NewStaticOps(g)
	if ops.Name() != "static" {
		t.Fatal("identity wrong")
	}
	a := ops.Const(tensor.FromSlice([]float64{1, 2}, 2))
	b := ops.Scale(a, 3)
	sess := graph.NewSession(g)
	out, err := sess.Run1(b.(*graph.Node), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.FromSlice([]float64{3, 6}, 2)) {
		t.Fatalf("got %v", out)
	}
}

func TestEagerOpsComputeImmediately(t *testing.T) {
	ops := NewEagerOps(nil, ModeRun)
	if ops.Name() != "define-by-run" {
		t.Fatal("identity wrong")
	}
	out := ops.Add(ops.ConstScalar(2), ops.ConstScalar(3))
	if ops.Eval(out).Item() != 5 {
		t.Fatal("eager did not compute")
	}
}

func TestVarReadSharedPerPass(t *testing.T) {
	v := vars.New("w", tensor.Scalar(1))
	g := graph.New()
	sops := NewStaticOps(g)
	if sops.VarRead(v) != sops.VarRead(v) {
		t.Fatal("static VarRead not cached")
	}
	eops := NewEagerOps(eager.NewTape(), ModeRun)
	if eops.VarRead(v) != eops.VarRead(v) {
		t.Fatal("eager VarRead not cached")
	}
}

func TestStatefulSkippedDuringEagerBuild(t *testing.T) {
	ops := NewEagerOps(nil, ModeBuild)
	ran := false
	out := ops.Stateful("side", []int{-1, 3}, func([]*tensor.Tensor) (*tensor.Tensor, error) {
		ran = true
		return tensor.New(1), nil
	})
	if ran {
		t.Fatal("stateful ran during build")
	}
	if !tensor.SameShape(ops.Eval(out).Shape(), []int{1, 3}) {
		t.Fatalf("build placeholder shape = %v", ops.Eval(out).Shape())
	}
	outs := ops.StatefulMulti("multi", [][]int{{-1}, {2}}, func([]*tensor.Tensor) ([]*tensor.Tensor, error) {
		ran = true
		return nil, nil
	})
	if ran || len(outs) != 2 {
		t.Fatal("stateful multi misbehaved during build")
	}
}

func TestStatefulErrorsSurfaceAsTypedPanic(t *testing.T) {
	ops := NewEagerOps(nil, ModeRun)
	defer func() {
		r := recover()
		se, ok := r.(*StatefulError)
		if !ok {
			t.Fatalf("panic type %T", r)
		}
		if se.OpName != "boom" || !errors.Is(se, se.Err) {
			t.Fatalf("bad error: %v", se)
		}
	}()
	ops.Stateful("boom", []int{}, func([]*tensor.Tensor) (*tensor.Tensor, error) {
		return nil, errors.New("kaput")
	})
}

func TestGradientsZeroDuringEagerBuild(t *testing.T) {
	ops := NewEagerOps(nil, ModeBuild)
	v := vars.New("w", tensor.New(2, 2))
	loss := ops.ConstScalar(1)
	gs := ops.Gradients(loss, []*vars.Variable{v})
	if !tensor.SameShape(ops.Eval(gs[0]).Shape(), []int{2, 2}) {
		t.Fatal("build-mode gradient shape wrong")
	}
}

func TestApplyUpdateModes(t *testing.T) {
	// Build mode must touch neither the variable nor the optimizer state;
	// run mode applies the rule and passes the norm through; the static node
	// does the same when a session runs it.
	// RMSProp with ρ = 0.75 and no epsilon keeps every value exact.
	rule := &tensor.UpdateRule{Kind: tensor.UpdateRMSProp, LR: 0.5, Beta2: 0.75}
	v := vars.New("w", tensor.Scalar(1))
	st := rule.NewState()
	bops := NewEagerOps(nil, ModeBuild)
	bops.ApplyUpdate(v, rule, st, bops.ConstScalar(2), bops.ConstScalar(2))
	if v.Val.Item() != 1 || st.Steps != 0 || st.V.Item() != 0 {
		t.Fatal("build mode mutated variable or optimizer state")
	}
	rops := NewEagerOps(nil, ModeRun)
	norm := rops.ApplyUpdate(v, rule, st, rops.ConstScalar(2), rops.ConstScalar(3))
	// v = 0.25*2² = 1; w = 1 - 0.5*2/sqrt(1).
	if v.Val.Item() != 0 || st.V.Item() != 1 || st.Steps != 1 {
		t.Fatalf("run mode: w=%g v=%g steps=%d", v.Val.Item(), st.V.Item(), st.Steps)
	}
	if rops.Eval(norm).Item() != 3 {
		t.Fatalf("norm passed through as %g", rops.Eval(norm).Item())
	}

	g := graph.New()
	sops := NewStaticOps(g)
	out := sops.ApplyUpdate(v, rule, st, sops.ConstScalar(1), sops.ConstScalar(3))
	res, err := graph.NewSession(g).Run([]*graph.Node{out.(*graph.Node)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// v = 0.75*1 + 0.25*1² = 1; w = 0 - 0.5*1/sqrt(1).
	if res[0].Item() != 3 || st.V.Item() != 1 || v.Val.Item() != -0.5 || st.Steps != 2 {
		t.Fatalf("static: norm=%g v=%g w=%g steps=%d", res[0].Item(), st.V.Item(), v.Val.Item(), st.Steps)
	}
}

func TestDefaultDeviceBracketing(t *testing.T) {
	g := graph.New()
	sops := NewStaticOps(g)
	sops.SetDefaultDevice("gpu0")
	n := sops.ConstScalar(1).(*graph.Node)
	if n.Device() != "gpu0" || sops.DefaultDevice() != "gpu0" {
		t.Fatal("static device not applied")
	}
	eops := NewEagerOps(nil, ModeRun)
	eops.SetDefaultDevice("cpu0")
	if eops.DefaultDevice() != "cpu0" {
		t.Fatal("eager device not recorded")
	}
}

// TestOpsParityOnRandomPrograms runs the same composite graph-fn program on
// both backends and compares results — the cross-backend contract every
// component relies on.
func TestOpsParityOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandNormal(rng, 0, 1, 3, 4)
	y := tensor.RandNormal(rng, 0, 1, 3, 4)

	program := func(ops Ops, xr, yr Ref) Ref {
		h := ops.Tanh(ops.Add(ops.Mul(xr, yr), ops.Scale(xr, 0.5)))
		s := ops.Softmax(h)
		m := ops.MeanAxis(ops.Square(ops.Sub(s, yr)), -1, false)
		return ops.Sum(ops.Relu(ops.AddScalar(m, -0.01)))
	}

	// Static.
	g := graph.New()
	sops := NewStaticOps(g)
	sref := program(sops, sops.Const(x), sops.Const(y))
	sess := graph.NewSession(g)
	sval, err := sess.Run1(sref.(*graph.Node), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Eager.
	eops := NewEagerOps(nil, ModeRun)
	eref := program(eops, eops.Const(x), eops.Const(y))
	eval := eops.Eval(eref)

	if !sval.AllClose(eval, 1e-12) {
		t.Fatalf("backends disagree: %v vs %v", sval, eval)
	}
}

func TestShapeOfBothBackends(t *testing.T) {
	g := graph.New()
	sops := NewStaticOps(g)
	ph := graph.Placeholder(g, "x", []int{-1, 7})
	if got := sops.ShapeOf(ph); !tensor.SameShape(got, []int{-1, 7}) {
		t.Fatalf("static shape = %v", got)
	}
	eops := NewEagerOps(nil, ModeRun)
	if got := eops.ShapeOf(eops.Const(tensor.New(2, 7))); !tensor.SameShape(got, []int{2, 7}) {
		t.Fatalf("eager shape = %v", got)
	}
}
