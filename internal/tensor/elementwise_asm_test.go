package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// vec wraps d as a rank-1 tensor without copying it.
func vec(d []float64) *Tensor { return &Tensor{shape: []int{len(d)}, data: d} }

// elementwiseLengths are n = 0…67, around every multiple of the 4-lane
// vector and the 8-element unroll, and extra, a length above a per-call
// bound.
func elementwiseLengths(extra int) []int {
	ns := make([]int, 0, 69)
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	return append(ns, extra)
}

// TestElementwiseAsmMatchesGo compares each elementwise kernel as it runs on
// this machine (assembly for the first n&^3 elements, the Go loop for the
// rest), and the assembly alone, with its Go loop called directly, bit for
// bit: unaligned operands between sentinels holding ±0, ±Inf, the machine's
// NaN and subnormals, and every n from 0 to 67 plus one above the per-call
// bound. The assembly alone must leave every element from n&^3 on untouched.
func TestElementwiseAsmMatchesGo(t *testing.T) {
	t.Run("flat", testFlatAsmMatchesGo)
	t.Run("Adam", testAdamAsmMatchesGo)
	t.Run("UnbroadcastInto", testUnbroadcastRowsMatchOdometer)
}

func testFlatAsmMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the Go loops run alone")
	}
	rng := rand.New(rand.NewSource(31))
	kernels := []struct {
		name   string
		public func(dst, a, b []float64)
		goLoop func(dst, a, b []float64)
		asm    func(dst, a, b []float64, n int)
	}{
		{"ReluFlat",
			func(d, a, _ []float64) { ReluFlat(d, a) },
			func(d, a, _ []float64) { reluGo(d, a) },
			func(d, a, _ []float64, n int) { reluAVX2(&d[0], &a[0], n) }},
		{"ReluBackwardInto",
			func(d, gy, x []float64) { ReluBackwardInto(vec(d), vec(gy), vec(x)) },
			reluBackwardGo,
			func(d, gy, x []float64, n int) { reluBackwardAVX2(&d[0], &gy[0], &x[0], n) }},
		{"AddFlat", AddFlat, addGo,
			func(d, a, b []float64, n int) { addAVX2(&d[0], &a[0], &b[0], n) }},
	}
	for _, n := range elementwiseLengths(asmCallElems + 13) {
		for _, k := range kernels {
			name := fmt.Sprintf("%s n=%d", k.name, n)
			a, aOK := guarded(n)
			b, bOK := guarded(n)
			fillOperand(rng, a, 0.1)
			fillOperand(rng, b, 0.1)
			want := make([]float64, n)
			k.goLoop(want, a, b)

			got, gotOK := guarded(n)
			k.public(got, a, b)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%s: element %d = %x, Go loop %x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
			if !aOK() || !bOK() || !gotOK() {
				t.Fatalf("%s: wrote outside its operands", name)
			}

			v := n &^ 3
			if v == 0 {
				continue
			}
			got, gotOK = guarded(n)
			k.asm(got, a, b, v)
			if i := sameBits(got[:v], want[:v]); i >= 0 {
				t.Fatalf("%s: assembly element %d = %x, Go loop %x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
			for i := v; i < n; i++ {
				if math.Float64bits(got[i]) != sentinel {
					t.Fatalf("%s: assembly wrote element %d, past n&^3 = %d", name, i, v)
				}
			}
			if !aOK() || !bOK() || !gotOK() {
				t.Fatalf("%s: assembly wrote outside its operands", name)
			}
		}
	}
}

// testAdamAsmMatchesGo: UpdateRule.Apply against adamStep.update run over the
// whole variable, on slots that land just below and just above the flush
// threshold, with and without a clip factor below 1, at the first step and
// at step 10⁴, and with four kernel workers on a variable large enough to
// fork.
func testAdamAsmMatchesGo(t *testing.T) {
	defer SetKernelParallelism(0)
	SetKernelParallelism(4)
	rng := rand.New(rand.NewSource(32))
	for _, n := range append(elementwiseLengths(adamCallElems+13), applyParallelFloor+4099) {
		for _, maxNorm := range []float64{0, 0.5} {
			r := UpdateRule{Kind: UpdateAdam, LR: 0.001, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, MaxGradNorm: maxNorm}
			for _, steps := range []int{1, 10000} {
				name := fmt.Sprintf("n=%d clip=%g step=%d", n, maxNorm, steps)
				w, wOK := guarded(n)
				g, gOK := guarded(n)
				m, mOK := guarded(n)
				v, vOK := guarded(n)
				fillOperand(rng, w, 0)
				fillOperand(rng, g, 0.05)
				for i := range m {
					if rng.Intn(3) > 0 {
						m[i], v[i] = rng.NormFloat64(), math.Abs(rng.NormFloat64())
						continue
					}
					// No gradient: the slots decay to thr·f, flushed for
					// f < 1 and kept for f > 1.
					f := []float64{0.999, 1.001}[rng.Intn(2)]
					g[i] = 0
					m[i] = math.Copysign(slotFlushBelow*f/r.Beta1, rng.NormFloat64())
					v[i] = slotFlushBelow * f / r.Beta2
				}
				wantW, wantM, wantV := append([]float64(nil), w...), append([]float64(nil), m...), append([]float64(nil), v...)
				const norm = 3
				r.adamStep(r.clipScale(norm), steps).update(wantW, g, wantM, wantV)

				st := &UpdateState{M: vec(m), V: vec(v), Steps: steps - 1}
				r.Apply(vec(w), st, vec(g), norm)
				for _, c := range []struct {
					slot      string
					got, want []float64
				}{{"w", w, wantW}, {"m", m, wantM}, {"v", v, wantV}} {
					if i := sameBits(c.got, c.want); i >= 0 {
						t.Fatalf("%s: %s[%d] = %x, Go loop %x", name, c.slot, i, math.Float64bits(c.got[i]), math.Float64bits(c.want[i]))
					}
				}
				if !wOK() || !gOK() || !mOK() || !vOK() {
					t.Fatalf("%s: wrote outside its operands", name)
				}
			}
		}
	}
}

// testUnbroadcastRowsMatchOdometer: the row path of UnbroadcastInto (out's
// shape a suffix of grad's) against the odometer, onto a partial sum, and a
// shape the row path must leave to the odometer.
func testUnbroadcastRowsMatchOdometer(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cases := []struct{ grad, target []int }{
		{[]int{32, 64}, []int{64}},
		{[]int{32, 64}, []int{1, 64}},
		{[]int{3, 5}, []int{5}},
		{[]int{7, 2}, []int{1, 2}},
		{[]int{2, 3, 4}, []int{3, 4}},
		{[]int{9}, []int{}},
		{[]int{32, 6}, []int{32, 1}}, // not a suffix
	}
	for _, c := range cases {
		grad, init := New(c.grad...), New(c.target...)
		fillOperand(rng, grad.data, 0.05)
		fillOperand(rng, init.data, 0.05)
		got, want := init.Clone(), init.Clone()
		UnbroadcastInto(got, grad)
		unbroadcastOdometer(want, grad)
		if !bitsEq(got, want) {
			t.Fatalf("UnbroadcastInto %v→%v differs from the odometer", c.grad, c.target)
		}
	}
	// Above maxOdoRank the odometer's scratch comes from the heap; the same
	// sums at rank 2 run on the stack.
	grad := New(2, 1, 2, 1, 2, 1, 2, 1, 2)
	fillOperand(rng, grad.data, 0.05)
	got := UnbroadcastInto(New(2, 1, 1, 1, 1, 1, 1, 1, 1), grad)
	want := UnbroadcastInto(New(2, 1), grad.Reshape(2, 16))
	if i := sameBits(got.data, want.data); i >= 0 {
		t.Fatalf("rank-9 column sum %d differs from rank 2", i)
	}
}
