package tensor

import "fmt"

// Fused compound kernels: single-pass loops for the two- and three-op
// elementwise chains the plan compiler pattern-matches (see
// internal/graph/fuse.go) — scaled sums (Add(a, Scale(b, s))), relu backward
// (Mul(gy, ReluMask(x))), and residual adds (Add(x, Mul(a,b))). The fused
// optimizer updates live in update.go.
//
// Every kernel performs exactly the rounding sequence of its unfused
// composition, in the same operand order: each intermediate product is
// rounded to float64 before the following add, just as the unfused chain
// rounds it into an intermediate tensor. Fused execution is therefore
// bit-for-bit identical to unfused execution — including the sign of zeros
// (relu backward computes gy*mask literally rather than branch-selecting, so
// gy < 0 against a zero mask still yields -0 like the unfused Mul).
//
// All fused kernels require identical operand shapes; the graph layer falls
// back to the composed ops when operands broadcast.

func sameShape3(name string, a, b *Tensor) {
	if !SameShape(a.shape, b.shape) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", name, a.shape, b.shape))
	}
}

// AddScaledInto sets out[i] = a[i] + s*b[i] and returns out.
func AddScaledInto(out, a, b *Tensor, s float64) *Tensor {
	sameShape3("AddScaled", a, b)
	ad, bd := a.data, b.data[:len(a.data)]
	od := out.data[:len(a.data)]
	for i := range od {
		t := s * bd[i]
		od[i] = ad[i] + t
	}
	return out
}

// MulAddInto sets out[i] = a[i] + b[i]*c[i] and returns out.
func MulAddInto(out, a, b, c *Tensor) *Tensor {
	sameShape3("MulAdd", a, b)
	sameShape3("MulAdd", b, c)
	ad, bd, cd := a.data, b.data[:len(a.data)], c.data[:len(a.data)]
	od := out.data[:len(a.data)]
	for i := range od {
		t := bd[i] * cd[i]
		od[i] = ad[i] + t
	}
	return out
}

// AddMulInto sets out[i] = a[i]*b[i] + c[i] and returns out.
func AddMulInto(out, a, b, c *Tensor) *Tensor {
	sameShape3("AddMul", a, b)
	sameShape3("AddMul", b, c)
	ad, bd, cd := a.data, b.data[:len(a.data)], c.data[:len(a.data)]
	od := out.data[:len(a.data)]
	for i := range od {
		t := ad[i] * bd[i]
		od[i] = t + cd[i]
	}
	return out
}

// ReluBackwardInto sets out[i] = gy[i] * mask(x[i]) where mask is 1 for
// x > 0 else 0, and returns out.
func ReluBackwardInto(out, gy, x *Tensor) *Tensor {
	sameShape3("ReluBackward", gy, x)
	gd, xd := gy.data, x.data[:len(gy.data)]
	od := out.data[:len(gy.data)]
	v := vecLen(len(od))
	for i := 0; i < v; i += asmCallElems {
		reluBackwardAVX2(&od[i], &gd[i], &xd[i], min(asmCallElems, v-i))
	}
	reluBackwardGo(od[v:], gd[v:], xd[v:])
	return out
}

// reluBackwardGo is ReluBackwardInto's Go loop.
func reluBackwardGo(od, gd, xd []float64) {
	gd, xd = gd[:len(od)], xd[:len(od)]
	for i := range od {
		m := 0.0
		if xd[i] > 0 {
			m = 1
		}
		od[i] = gd[i] * m
	}
}
