package vars

import (
	"testing"

	"rlgraph/internal/tensor"
)

func TestStoreOrderingAndLookup(t *testing.T) {
	s := NewStore()
	s.Add(New("b", tensor.Scalar(2)))
	s.Add(New("a", tensor.Scalar(1)))
	s.Add(&Variable{Name: "c", Val: tensor.Scalar(3)})
	all := s.All()
	if len(all) != 3 || all[0].Name != "b" || all[1].Name != "a" {
		t.Fatalf("registration order lost: %v", all)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.byName["a"].Val.Item() != 1 {
		t.Fatal("lookup failed")
	}
	tr := s.Trainable()
	if len(tr) != 2 {
		t.Fatalf("trainables = %d", len(tr))
	}
}

func TestStoreDuplicatePanics(t *testing.T) {
	s := NewStore()
	s.Add(New("x", tensor.Scalar(0)))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate accepted")
		}
	}()
	s.Add(New("x", tensor.Scalar(1)))
}

func TestSetWeightsValidation(t *testing.T) {
	s := NewStore()
	s.Add(New("w", tensor.New(2)))
	if err := s.SetWeights(map[string]*tensor.Tensor{"nope": tensor.New(2)}); err == nil {
		t.Fatal("unknown name accepted")
	}
	if err := s.SetWeights(map[string]*tensor.Tensor{"w": tensor.New(3)}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	src := tensor.FromSlice([]float64{1, 2}, 2)
	if err := s.SetWeights(map[string]*tensor.Tensor{"w": src}); err != nil {
		t.Fatal(err)
	}
	if s.byName["w"].Val.Data()[1] != 2 {
		t.Fatal("value not installed")
	}
	src.Data()[1] = 99
	if s.byName["w"].Val.Data()[1] != 2 {
		t.Fatal("SetWeights aliased the source")
	}
}
