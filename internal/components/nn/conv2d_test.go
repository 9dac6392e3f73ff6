package nn

import (
	"math/rand"
	"testing"

	"rlgraph/internal/exec"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// Both backends lower the layer through tensor.Conv2D with identically
// seeded weights, so forward outputs must match bit-for-bit, not just to
// tolerance.
func TestConv2DForwardBothBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := tensor.RandNormal(rng, 0, 1, 2, 9, 9, 3)
	var outs []*tensor.Tensor
	for _, b := range exec.Backends() {
		c := NewConv2D("c", 5, 3, 2, "same", "relu", 77)
		ct, err := exec.NewComponentTest(b, c.Component, exec.InputSpaces{
			"call": {spaces.NewFloatBox(9, 9, 3).WithBatchRank()},
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := ct.Test1("call", in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.SameShape(out.Shape(), []int{2, 5, 5, 5}) {
			t.Fatalf("backend %s: shape = %v", b, out.Shape())
		}
		for _, v := range out.Data() {
			if v < 0 {
				t.Fatalf("backend %s: relu output negative", b)
			}
		}
		outs = append(outs, out)
	}
	a, b := outs[0].Data(), outs[1].Data()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backends disagree at flat index %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestConv2DCreatesVariablesFromInputSpace(t *testing.T) {
	c := NewConv2D("c", 6, 3, 1, "valid", "", 9)
	if _, err := exec.NewComponentTest("static", c.Component, exec.InputSpaces{
		"call": {spaces.NewFloatBox(8, 8, 2).WithBatchRank()},
	}); err != nil {
		t.Fatal(err)
	}
	if c.W == nil || !tensor.SameShape(c.W.Val.Shape(), []int{3, 3, 2, 6}) {
		t.Fatalf("W shape = %v", c.W.Val.Shape())
	}
	if !tensor.SameShape(c.B.Val.Shape(), []int{6}) {
		t.Fatalf("B shape = %v", c.B.Val.Shape())
	}
}

// A small conv net (conv → conv → flatten → dense) run end-to-end on both
// backends exercises the conv fast path through the full component
// stack and must agree across backends.
func TestConvNetworkBothBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	in := tensor.RandNormal(rng, 0, 1, 3, 12, 12, 2)
	var outs []*tensor.Tensor
	for _, b := range exec.Backends() {
		n := MustNetwork("convnet", []LayerSpec{
			{Type: "conv2d", Filters: 4, Kernel: 3, Stride: 2, Padding: "same", Activation: "relu"},
			{Type: "conv2d", Filters: 8, Kernel: 3, Stride: 1, Activation: "relu"},
			{Type: "flatten"},
			{Type: "dense", Units: 6},
		}, 19)
		ct, err := exec.NewComponentTest(b, n.Component, exec.InputSpaces{
			"call": {spaces.NewFloatBox(12, 12, 2).WithBatchRank()},
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := ct.Test1("call", in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.SameShape(out.Shape(), []int{3, 6}) {
			t.Fatalf("backend %s: shape = %v", b, out.Shape())
		}
		outs = append(outs, out)
	}
	if !outs[0].Equal(outs[1]) {
		t.Fatal("backends disagree on conv network forward")
	}
}
