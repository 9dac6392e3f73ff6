package graph

import (
	"math/rand"
	"strings"
	"testing"

	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

func TestStaticGraphEmitsNodesWithoutComputing(t *testing.T) {
	g := New()
	b := Scale(g, Const(g, tensor.FromSlice([]float64{1, 2}, 2)), 3)
	if b.Value() != nil {
		t.Fatal("static graph computed a value at build time")
	}
	out, err := NewSession(g).Run1(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.FromSlice([]float64{3, 6}, 2)) {
		t.Fatalf("got %v", out)
	}
}

func TestEagerGraphComputesImmediately(t *testing.T) {
	for _, record := range []bool{false, true} {
		g := NewEager(record)
		out := Add(g, ConstScalar(g, 2), ConstScalar(g, 3))
		if out.Value().Item() != 5 {
			t.Fatal("eager did not compute")
		}
		// A no-grad pass keeps nothing, so intermediates are freed as it goes.
		if kept, want := g.NumNodes(), map[bool]int{false: 0, true: 3}[record]; kept != want {
			t.Fatalf("record=%v: graph kept %d nodes, want %d", record, kept, want)
		}
	}
}

func TestNoGradPassComputesWithoutRecording(t *testing.T) {
	g := NewEager(false)
	a := Const(g, tensor.FromSlice([]float64{1, 2}, 2))
	b := Const(g, tensor.FromSlice([]float64{3, 4}, 2))
	if out := Add(g, a, b).Value(); !out.Equal(tensor.FromSlice([]float64{4, 6}, 2)) {
		t.Fatalf("got %v", out)
	}
	if n := g.NumNodes(); n != 0 {
		t.Fatalf("no-grad pass recorded %d nodes", n)
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "does not record") {
			t.Fatalf("Gradients on a no-grad pass: panic %q", r)
		}
	}()
	Gradients(g, Sum(g, a), []*Node{a})
}

func TestVarReadSharedPerPass(t *testing.T) {
	v := vars.New("w", tensor.Scalar(1))
	for _, g := range []*Graph{New(), NewEager(true), NewEager(false), NewBuildPass()} {
		if VarRead(g, v) != VarRead(g, v) {
			t.Fatal("VarRead not shared within a graph")
		}
	}
	if VarRead(New(), v) == VarRead(New(), v) {
		t.Fatal("VarRead shared across graphs")
	}
}

func TestStatefulSkippedDuringBuildPass(t *testing.T) {
	g := NewBuildPass()
	ran := false
	out := Stateful(g, "side", []int{-1, 3}, func([]*tensor.Tensor) (*tensor.Tensor, error) {
		ran = true
		return tensor.New(1), nil
	})
	if ran {
		t.Fatal("stateful ran during build")
	}
	if !out.Value().Equal(tensor.New(1, 3)) {
		t.Fatalf("build placeholder = %v", out.Value())
	}
	outs := StatefulMulti(g, "multi", [][]int{{-1}, {2}}, func([]*tensor.Tensor) ([]*tensor.Tensor, error) {
		ran = true
		return nil, nil
	})
	if ran || len(outs) != 2 || !outs[1].Value().Equal(tensor.New(2)) {
		t.Fatal("stateful multi misbehaved during build")
	}
}

func TestGradientsZeroDuringBuildPass(t *testing.T) {
	g := NewBuildPass()
	v := vars.New("w", tensor.Ones(2, 2))
	gs := Gradients(g, Sum(g, VarRead(g, v)), []*Node{VarRead(g, v)})
	if !gs[0].Value().Equal(tensor.New(2, 2)) {
		t.Fatalf("build-pass gradient = %v", gs[0].Value())
	}
}

func TestApplyUpdateModes(t *testing.T) {
	// A build pass must touch neither the variable nor the optimizer state;
	// an eager pass applies the rule and passes the norm through; the static
	// node does the same when a session runs it.
	// RMSProp with ρ = 0.75 and no epsilon keeps every value exact.
	rule := &tensor.UpdateRule{Kind: tensor.UpdateRMSProp, LR: 0.5, Beta2: 0.75}
	v := vars.New("w", tensor.Scalar(1))
	st := rule.NewState()
	bg := NewBuildPass()
	ApplyUpdate(bg, v, rule, st, ConstScalar(bg, 2), ConstScalar(bg, 2))
	if v.Val.Item() != 1 || st.Steps != 0 || st.V.Item() != 0 {
		t.Fatal("build pass mutated variable or optimizer state")
	}
	eg := NewEager(false)
	norm := ApplyUpdate(eg, v, rule, st, ConstScalar(eg, 2), ConstScalar(eg, 3))
	// v = 0.25*2² = 1; w = 1 - 0.5*2/sqrt(1).
	if v.Val.Item() != 0 || st.V.Item() != 1 || st.Steps != 1 {
		t.Fatalf("eager: w=%g v=%g steps=%d", v.Val.Item(), st.V.Item(), st.Steps)
	}
	if norm.Value().Item() != 3 {
		t.Fatalf("norm passed through as %g", norm.Value().Item())
	}

	g := New()
	out := ApplyUpdate(g, v, rule, st, ConstScalar(g, 1), ConstScalar(g, 3))
	res, err := NewSession(g).Run1(out, nil)
	if err != nil {
		t.Fatal(err)
	}
	// v = 0.75*1 + 0.25*1² = 1; w = 0 - 0.5*1/sqrt(1).
	if res.Item() != 3 || st.V.Item() != 1 || v.Val.Item() != -0.5 || st.Steps != 2 {
		t.Fatalf("static: norm=%g v=%g w=%g steps=%d", res.Item(), st.V.Item(), v.Val.Item(), st.Steps)
	}
}

func TestDefaultDeviceBracketing(t *testing.T) {
	for _, g := range []*Graph{New(), NewEager(false)} {
		g.SetDefaultDevice("gpu0")
		if n := ConstScalar(g, 1); n.Device() != "gpu0" || g.DefaultDevice() != "gpu0" {
			t.Fatal("default device not applied")
		}
	}
}

// TestOpsParityOnRandomPrograms runs the same composite graph-fn program on
// both backends and requires the same bits — the cross-backend contract every
// component relies on.
func TestOpsParityOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandNormal(rng, 0, 1, 3, 4)
	y := tensor.RandNormal(rng, 0, 1, 3, 4)
	program := func(g *Graph) []*Node {
		xr, yr := Const(g, x), Const(g, y)
		h := Tanh(g, Add(g, Mul(g, xr, yr), Scale(g, xr, 0.5)))
		s := Softmax(g, h)
		m := MeanAxis(g, Square(g, Sub(g, s, yr)), -1, false)
		return []*Node{Sum(g, Relu(g, AddScalar(g, m, -0.01)))}
	}
	sval, eval := run(t, "static", program)[0], program(NewEager(false))[0].Value()
	if !sval.Equal(eval) {
		t.Fatalf("backends disagree: %v vs %v", sval, eval)
	}
}

func TestShapeOfBothBackends(t *testing.T) {
	if got := Placeholder(New(), "x", []int{-1, 7}).Shape(); !tensor.SameShape(got, []int{-1, 7}) {
		t.Fatalf("static shape = %v", got)
	}
	g := NewEager(false)
	if got := Const(g, tensor.New(2, 7)).Shape(); !tensor.SameShape(got, []int{2, 7}) {
		t.Fatalf("eager shape = %v", got)
	}
}
