package spaces

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rlgraph/internal/tensor"
)

func TestFloatBoxSampleContains(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fb := NewBoundedFloatBox(-1, 1, 3).WithBatchRank().(*FloatBox)
	s := fb.Sample(rng, 5)
	if !tensor.SameShape(s.Shape(), []int{5, 3}) {
		t.Fatalf("shape = %v", s.Shape())
	}
	if !fb.Contains(s) {
		t.Fatal("sample not contained")
	}
	if fb.Contains(tensor.New(5, 4)) {
		t.Fatal("wrong shape accepted")
	}
	if fb.Contains(tensor.Full(2, 5, 3)) {
		t.Fatal("out-of-bounds accepted")
	}
}

func TestFloatBoxUnboundedAcceptsAnything(t *testing.T) {
	fb := NewFloatBox(2)
	if !fb.Contains(tensor.Full(1e9, 2)) {
		t.Fatal("unbounded box rejected value")
	}
}

func TestIntBoxSampleContains(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ib := NewIntBox(4).WithBatchRank().(*IntBox)
	s := ib.Sample(rng, 10)
	if !tensor.SameShape(s.Shape(), []int{10}) {
		t.Fatalf("shape = %v", s.Shape())
	}
	if !ib.Contains(s) {
		t.Fatal("sample not contained")
	}
	if ib.Contains(tensor.FromSlice([]float64{4}, 1)) {
		t.Fatal("out-of-range accepted")
	}
	if ib.Contains(tensor.FromSlice([]float64{1.5}, 1)) {
		t.Fatal("non-integer accepted")
	}
}

func TestBoolBox(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bb := NewBoolBox().WithBatchRank().(*BoolBox)
	s := bb.Sample(rng, 8)
	if !bb.Contains(s) {
		t.Fatal("sample not contained")
	}
	if bb.Contains(tensor.FromSlice([]float64{0.5}, 1)) {
		t.Fatal("non-boolean accepted")
	}
}

func TestDictFlattenOrderIsSorted(t *testing.T) {
	d := NewDict(map[string]Space{
		"zeta":  NewFloatBox(1),
		"alpha": NewIntBox(2),
		"mid":   NewBoolBox(),
	})
	leaves := Flatten(d)
	if len(leaves) != 3 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	want := []string{"alpha", "mid", "zeta"}
	for i, l := range leaves {
		if l.Path != want[i] {
			t.Fatalf("leaf %d path = %q, want %q", i, l.Path, want[i])
		}
	}
}

func TestNestedContainerFlatten(t *testing.T) {
	s := NewDict(map[string]Space{
		"obs": NewDict(map[string]Space{"vel": NewFloatBox(2), "pos": NewFloatBox(3)}),
		"a":   NewIntBox(4),
	})
	leaves := Flatten(s)
	paths := []string{"a", "obs/pos", "obs/vel"}
	if len(leaves) != len(paths) {
		t.Fatalf("%d leaves, want %d", len(leaves), len(paths))
	}
	for i, l := range leaves {
		if l.Path != paths[i] {
			t.Fatalf("leaf %d = %q, want %q", i, l.Path, paths[i])
		}
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := NewDict(map[string]Space{
		"discrete": NewIntBox(3).WithBatchRank(),
		"cont":     NewFloatBox(2).WithBatchRank(),
	})
	v := SampleContainer(s, rng, 6)
	leaves := FlattenValue(s, v)
	v2 := UnflattenValue(s, leaves)
	leaves2 := FlattenValue(s, v2)
	for i := range leaves {
		if !leaves[i].Equal(leaves2[i]) {
			t.Fatalf("leaf %d changed in round trip", i)
		}
	}
	if !ContainsValue(s, v2) {
		t.Fatal("round-tripped value not contained")
	}
}

// Property: for random dict spaces, samples are always contained and the
// flatten/unflatten round trip is the identity on leaves.
func TestSampleContainedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewDict(map[string]Space{
			"x": NewBoundedFloatBox(-2, 2, 1+rng.Intn(4)).WithBatchRank(),
			"y": NewIntBox(1 + rng.Intn(5)).WithBatchRank(),
		})
		batch := 1 + rng.Intn(7)
		v := SampleContainer(s, rng, batch)
		if !ContainsValue(s, v) {
			return false
		}
		leaves := FlattenValue(s, v)
		v2 := UnflattenValue(s, leaves)
		l2 := FlattenValue(s, v2)
		for i := range leaves {
			if !leaves[i].Equal(l2[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestContainsValueRejectsMismatchedTree(t *testing.T) {
	s := NewDict(map[string]Space{"a": NewFloatBox(1)})
	bad := &Value{Dict: map[string]*Value{"b": LeafValue(tensor.New(1))}}
	if ContainsValue(s, bad) {
		t.Fatal("mismatched dict accepted")
	}
}

func TestWithBatchRankContainers(t *testing.T) {
	s := NewDict(map[string]Space{"a": NewFloatBox(1), "b": NewIntBox(2)})
	b := s.WithBatchRank()
	if !b.HasBatchRank() {
		t.Fatal("batch rank not applied to leaves")
	}
	if s.HasBatchRank() {
		t.Fatal("original mutated")
	}
}

func TestStringRendering(t *testing.T) {
	s := NewDict(map[string]Space{"a": NewIntBox(3).WithBatchRank()})
	if s.String() != "Dict{a:IntBox(3)[]+B}" {
		t.Fatalf("String = %q", s.String())
	}
}
