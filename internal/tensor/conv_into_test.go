package tensor

import (
	"math/rand"
	"testing"
)

// TestConvIntoVariants: the …Into forms accumulate into a caller-supplied
// zero-filled tensor of exactly the result's shape, return it, and refuse
// any other shape.
func TestConvIntoVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	in := RandNormal(rng, 0, 1, 2, 7, 6, 3)
	f := RandNormal(rng, 0, 1, 3, 2, 3, 5)
	p := ConvParams{StrideH: 2, StrideW: 1, PadH: 1, PadW: 0}
	want := Conv2DNaive(in, f, p)
	gy := RandNormal(rng, 0, 1, want.Shape()...)

	out := New(want.Shape()...)
	if got := Conv2DInto(out, in, f, p); got != out || !tensorsBitEqual(out, want) {
		t.Fatal("Conv2DInto differs from Conv2DNaive")
	}
	dx := New(in.Shape()...)
	if got := Conv2DBackwardInputInto(dx, gy, f, p); got != dx || !tensorsBitEqual(dx, Conv2DBackwardInputNaive(gy, f, in.Shape(), p)) {
		t.Fatal("Conv2DBackwardInputInto differs from the naive input gradient")
	}
	df := New(f.Shape()...)
	if got := Conv2DBackwardFilterInto(df, in, gy, p); got != df || !tensorsBitEqual(df, Conv2DBackwardFilterNaive(in, gy, f.Shape(), p)) {
		t.Fatal("Conv2DBackwardFilterInto differs from the naive filter gradient")
	}

	for name, bad := range map[string]func(){
		"Conv2DInto":               func() { Conv2DInto(New(2, 4, 5, 4), in, f, p) },
		"Conv2DBackwardInputInto":  func() { Conv2DBackwardInputInto(New(2, 7, 6, 4), gy, f, p) },
		"Conv2DBackwardFilterInto": func() { Conv2DBackwardFilterInto(New(3, 2, 4, 5), in, gy, p) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted an out tensor of the wrong shape", name)
				}
			}()
			bad()
		}()
	}
}
