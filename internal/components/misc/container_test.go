package misc

import (
	"math/rand"
	"testing"

	"rlgraph/internal/component"
	"rlgraph/internal/exec"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

func containerSpace() spaces.Space {
	return spaces.NewDict(map[string]spaces.Space{
		"position": spaces.NewFloatBox(3).WithBatchRank(),
		"camera":   spaces.NewFloatBox(2, 2).WithBatchRank(),
		"health":   spaces.NewFloatBox(1).WithBatchRank(),
	})
}

func TestSplitterRecoversLeaves(t *testing.T) {
	space := containerSpace()
	for _, b := range exec.Backends() {
		s := NewContainerSplitter("split", space)
		// Leaf order is the deterministic Flatten order (sorted keys).
		want := []string{"camera", "health", "position"}
		for i, p := range s.LeafPaths() {
			if p != want[i] {
				t.Fatalf("leaf %d = %q", i, p)
			}
		}
		total := 4 + 1 + 3
		ct, err := exec.NewComponentTest(b, s.Component, exec.InputSpaces{
			"split": {spaces.NewFloatBox(total).WithBatchRank()},
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		v := spaces.SampleContainer(space, rng, 5)
		flat := FlattenContainerValue(space, v)
		outs, err := ct.Test("split", flat)
		if err != nil {
			t.Fatal(err)
		}
		// camera leaf restored to [5,2,2].
		if !tensor.SameShape(outs[0].Shape(), []int{5, 2, 2}) {
			t.Fatalf("%s: camera shape = %v", b, outs[0].Shape())
		}
		if !outs[0].Equal(v.Get("camera").Leaf) {
			t.Fatalf("%s: camera data mismatch", b)
		}
		if !outs[1].Equal(v.Get("health").Leaf) || !outs[2].Equal(v.Get("position").Leaf) {
			t.Fatalf("%s: leaf data mismatch", b)
		}
	}
}

func TestMergerInvertsSplitter(t *testing.T) {
	space := containerSpace()
	root := component.New("root")
	s := NewContainerSplitter("split", space)
	m := NewContainerMerger("merge", space)
	root.AddSub(s.Component)
	root.AddSub(m.Component)
	root.DefineAPI("roundtrip", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		leaves := s.Call(ctx, "split", in...)
		return m.Call(ctx, "merge", leaves...)
	})
	total := 8
	ct, err := exec.NewComponentTest("static", root, exec.InputSpaces{
		"roundtrip": {spaces.NewFloatBox(total).WithBatchRank()},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	in := tensor.RandNormal(rng, 0, 1, 4, total)
	out, err := ct.Test1("roundtrip", in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(in) {
		t.Fatal("merge(split(x)) != x")
	}
}

func TestSplitterGradientFlows(t *testing.T) {
	// The split must be differentiable: gradients flow back into the
	// flattened record through SliceCols' adjoint.
	space := spaces.NewDict(map[string]spaces.Space{
		"a": spaces.NewFloatBox(2).WithBatchRank(),
		"b": spaces.NewFloatBox(3).WithBatchRank(),
	})
	_ = space
	// Verified at the op level in graph/eager tests (SliceCols gradient);
	// here we check the component path executes on a grad-enabled API.
	s := NewContainerSplitter("split", space)
	ct, err := exec.NewComponentTest("define-by-run", s.Component, exec.InputSpaces{
		"split": {spaces.NewFloatBox(5).WithBatchRank()},
	})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := ct.Test("split", tensor.Arange(0, 10).Reshape(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !outs[0].Equal(tensor.FromSlice([]float64{0, 1, 5, 6}, 2, 2)) {
		t.Fatalf("a = %v", outs[0])
	}
	if !outs[1].Equal(tensor.FromSlice([]float64{2, 3, 4, 7, 8, 9}, 2, 3)) {
		t.Fatalf("b = %v", outs[1])
	}
}
