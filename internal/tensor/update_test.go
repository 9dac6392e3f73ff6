package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// composedUpdate is the reference: the update spelled as the elementwise op
// chain the optimizer component emitted before the fused kernel existed,
// without any flush. It mutates w, m and v like Apply does.
func composedUpdate(r UpdateRule, w, m, v, g *Tensor, norm float64, step int) {
	if r.MaxGradNorm > 0 {
		g = Scale(g, math.Min(1, r.MaxGradNorm/(norm+1e-12)))
	}
	switch r.Kind {
	case UpdateRMSProp:
		v.CopyFrom(Add(Scale(v, r.Beta2), Scale(Square(g), 1-r.Beta2)))
		AxpyInPlace(w, -r.LR, Div(g, Sqrt(AddScalar(v, r.Epsilon))))
	case UpdateAdam:
		m.CopyFrom(Add(Scale(m, r.Beta1), Scale(g, 1-r.Beta1)))
		v.CopyFrom(Add(Scale(v, r.Beta2), Scale(Square(g), 1-r.Beta2)))
		t := float64(step)
		c := math.Sqrt(1-math.Pow(r.Beta2, t)) / (1 - math.Pow(r.Beta1, t))
		AxpyInPlace(w, -r.LR, Div(Scale(m, c), AddScalar(Sqrt(v), r.Epsilon)))
	}
}

func testRules(maxNorm float64) []UpdateRule {
	return []UpdateRule{
		{Kind: UpdateRMSProp, LR: 0.01, Beta2: 0.99, Epsilon: 1e-8, MaxGradNorm: maxNorm},
		{Kind: UpdateAdam, LR: 0.001, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, MaxGradNorm: maxNorm},
	}
}

func slotOrZero(t *Tensor, n int) *Tensor {
	if t == nil {
		return New(n)
	}
	return t.Clone()
}

// TestUpdateMatchesComposedOps: five consecutive fused updates equal the
// composed elementwise chain bit for bit — weights and slots — for every
// rule, with and without clipping, at lengths around the unroll widths and
// at one above the floor from which four workers share the update.
func TestUpdateMatchesComposedOps(t *testing.T) {
	defer SetKernelParallelism(0)
	SetKernelParallelism(4)
	rng := rand.New(rand.NewSource(11))
	for _, maxNorm := range []float64{0, 0.7} {
		for _, r := range testRules(maxNorm) {
			for _, n := range []int{1, 3, 4, 5, 4097, applyParallelFloor + 4097} {
				w := RandNormal(rng, 0, 1, n)
				st := r.NewState(n)
				wRef, mRef, vRef := w.Clone(), slotOrZero(st.M, n), slotOrZero(st.V, n)
				for step := 1; step <= 5; step++ {
					g := RandNormal(rng, 0, 1, n)
					norm := math.Sqrt(SumSquares(g))
					r.Apply(w, st, g, norm)
					composedUpdate(r, wRef, mRef, vRef, g, norm, step)
					name := fmt.Sprintf("kind=%d clip=%g n=%d step=%d", r.Kind, maxNorm, n, step)
					if !bitsEq(w, wRef) {
						t.Fatalf("%s: weights diverge from the composed ops", name)
					}
					if st.M != nil && !bitsEq(st.M, mRef) {
						t.Fatalf("%s: first-moment slot diverges", name)
					}
					if st.V != nil && !bitsEq(st.V, vRef) {
						t.Fatalf("%s: second-moment slot diverges", name)
					}
				}
				if st.Steps != 5 {
					t.Fatalf("Steps = %d, want 5", st.Steps)
				}
			}
		}
	}
}

// TestUpdateFlushesDecayedSlots is the denormal regression: entries whose
// gradient stops after a few steps decay geometrically, and without the
// flush end up stuck on subnormals (the composed reference does). The fused
// kernel must store exact zeros there, hold no subnormal anywhere, and still
// produce the reference's weights bit for bit.
func TestUpdateFlushesDecayedSlots(t *testing.T) {
	const n, dead, steps = 8, 4, 10000
	subnormal := func(x float64) bool { return x != 0 && math.Abs(x) < 0x1p-1022 }
	for _, r := range testRules(0) {
		rng := rand.New(rand.NewSource(3))
		w := RandNormal(rng, 0, 1, n)
		st := r.NewState(n)
		wRef, mRef, vRef := w.Clone(), slotOrZero(st.M, n), slotOrZero(st.V, n)
		for step := 1; step <= steps; step++ {
			g := RandNormal(rng, 0, 1e-3, n)
			if step > 10 {
				clear(g.Data()[:dead])
			}
			r.Apply(w, st, g, 0)
			composedUpdate(r, wRef, mRef, vRef, g, 0, step)
		}
		if !bitsEq(w, wRef) {
			t.Fatalf("kind=%d: weights differ from the unflushed reference", r.Kind)
		}
		for _, slot := range []*Tensor{st.M, st.V} {
			if slot == nil {
				continue
			}
			for i, x := range slot.Data() {
				if subnormal(x) {
					t.Fatalf("kind=%d: slot[%d] = %g is subnormal", r.Kind, i, x)
				}
			}
		}
		if st.M == nil {
			continue
		}
		sawSubnormal := false
		for i := 0; i < dead; i++ {
			if st.M.Data()[i] != 0 {
				t.Fatalf("kind=%d: m[%d] = %g, want exact 0", r.Kind, i, st.M.Data()[i])
			}
			sawSubnormal = sawSubnormal || subnormal(mRef.Data()[i])
		}
		if !sawSubnormal {
			t.Fatalf("kind=%d: the unflushed reference holds no subnormal; the scenario no longer reproduces the slowdown", r.Kind)
		}
	}
}

// TestSumSquaresMatchesSumSquare pins the one-pass reduction to the composed
// sumAll(Square(x)), including the empty tensor.
func TestSumSquaresMatchesSumSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 3, 4, 5, 4097} {
		x := RandNormal(rng, 0, 3, n)
		if got, want := SumSquares(x), sumAll(Square(x)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: SumSquares = %v, sum of Square = %v", n, got, want)
		}
	}
}
