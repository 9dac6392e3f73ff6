package nn

import (
	"math"
	"math/rand"
	"testing"

	"rlgraph/internal/exec"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

func TestDenseForwardBothBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := tensor.RandNormal(rng, 0, 1, 3, 4)
	var outs []*tensor.Tensor
	for _, b := range exec.Backends() {
		d := NewDense("d", 5, "relu", 42)
		ct, err := exec.NewComponentTest(b, d.Component, exec.InputSpaces{
			"call": {spaces.NewFloatBox(4).WithBatchRank()},
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := ct.Test1("call", in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.SameShape(out.Shape(), []int{3, 5}) {
			t.Fatalf("shape = %v", out.Shape())
		}
		for _, v := range out.Data() {
			if v < 0 {
				t.Fatal("relu output negative")
			}
		}
		outs = append(outs, out)
	}
	// Same seed ⇒ identical weights ⇒ identical outputs across backends.
	if !outs[0].AllClose(outs[1], 1e-12) {
		t.Fatal("backends disagree on dense forward")
	}
}

func TestDenseCreatesVariablesFromInputSpace(t *testing.T) {
	d := NewDense("d", 8, "", 7)
	_, err := exec.NewComponentTest("static", d.Component, exec.InputSpaces{
		"call": {spaces.NewFloatBox(3).WithBatchRank()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.W == nil || !tensor.SameShape(d.W.Val.Shape(), []int{3, 8}) {
		t.Fatalf("W shape = %v", d.W.Val.Shape())
	}
	if !tensor.SameShape(d.B.Val.Shape(), []int{8}) {
		t.Fatalf("B shape = %v", d.B.Val.Shape())
	}
}

func TestConv2DLayerShapes(t *testing.T) {
	c := NewConv2D("c", 16, 8, 4, "valid", "relu", 3)
	ct, err := exec.NewComponentTest("static", c.Component, exec.InputSpaces{
		"call": {spaces.NewFloatBox(84, 84, 4).WithBatchRank()},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	out, err := ct.Test1("call", tensor.RandNormal(rng, 0, 1, 2, 84, 84, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(out.Shape(), []int{2, 20, 20, 16}) {
		t.Fatalf("shape = %v", out.Shape())
	}
}

func TestConvSamePaddingKeepsSpatialDims(t *testing.T) {
	c := NewConv2D("c", 4, 3, 1, "same", "", 5)
	ct, err := exec.NewComponentTest("define-by-run", c.Component, exec.InputSpaces{
		"call": {spaces.NewFloatBox(10, 10, 2).WithBatchRank()},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ct.Test1("call", tensor.New(1, 10, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(out.Shape(), []int{1, 10, 10, 4}) {
		t.Fatalf("shape = %v", out.Shape())
	}
}

func TestNetworkFromSpecs(t *testing.T) {
	specs, err := ParseNetworkSpec([]byte(`[
		{"type": "dense", "units": 16, "activation": "tanh"},
		{"type": "dense", "units": 4}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	n := MustNetwork("net", specs, 9)
	if len(n.layers) != 2 {
		t.Fatalf("layers = %d", len(n.layers))
	}
	ct, err := exec.NewComponentTest("static", n.Component, exec.InputSpaces{
		"call": {spaces.NewFloatBox(6).WithBatchRank()},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ct.Test1("call", tensor.New(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(out.Shape(), []int{5, 4}) {
		t.Fatalf("shape = %v", out.Shape())
	}
}

func TestNetworkUnknownLayerType(t *testing.T) {
	if _, err := NewNetwork("n", []LayerSpec{{Type: "lstm9000"}}, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestDuelingHeadDecomposition(t *testing.T) {
	// Q = V + A - mean(A) implies mean_a Q(s,a) = V(s).
	d := NewDuelingHead("duel", 8, 3, 11)
	ct, err := exec.NewComponentTest("static", d.Component, exec.InputSpaces{
		"call": {spaces.NewFloatBox(5).WithBatchRank()},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	in := tensor.RandNormal(rng, 0, 1, 4, 5)
	q, err := ct.Test1("call", in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(q.Shape(), []int{4, 3}) {
		t.Fatalf("shape = %v", q.Shape())
	}
	// Verify the advantage stream is centered: Q - rowmean(Q) must equal
	// A - mean(A), i.e. rowmean(Q) equals the value stream. We can't read
	// V directly here, but centering implies rowmean(Q) is independent of
	// any common advantage offset; sanity-check finiteness and spread.
	rm := tensor.MeanAxis(q, 1, false)
	for i := 0; i < 4; i++ {
		if math.IsNaN(rm.Data()[i]) {
			t.Fatal("NaN in dueling output")
		}
	}
}

func TestConvDuelingAtariArchitecture(t *testing.T) {
	// The standard 3-conv + dueling architecture from the paper's Fig. 5
	// workloads, on a downscaled 42x42 input for test speed.
	n := MustNetwork("atari", []LayerSpec{
		{Type: "conv2d", Filters: 8, Kernel: 8, Stride: 4, Activation: "relu"},
		{Type: "conv2d", Filters: 16, Kernel: 4, Stride: 2, Activation: "relu"},
		{Type: "conv2d", Filters: 16, Kernel: 3, Stride: 1, Activation: "relu"},
		{Type: "flatten"},
		{Type: "dueling", Units: 32, Actions: 6},
	}, 13)
	ct, err := exec.NewComponentTest("static", n.Component, exec.InputSpaces{
		"call": {spaces.NewFloatBox(42, 42, 1).WithBatchRank()},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ct.Test1("call", tensor.New(2, 42, 42, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(out.Shape(), []int{2, 6}) {
		t.Fatalf("shape = %v", out.Shape())
	}
	// Component graph includes conv layers, flatten, dueling + its four
	// dense streams: at least 9 components under the network.
	if n.Component.NumComponents() < 9 {
		t.Fatalf("components = %d", n.Component.NumComponents())
	}
}
