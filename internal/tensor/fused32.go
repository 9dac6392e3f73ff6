package tensor

// Float32 fused compound kernels — the lowered-path twins of fused.go. Same
// contract: identical operand shapes (the lowered fusion closures fall back
// to the composed ops when operands broadcast), and each kernel performs
// exactly the rounding sequence of its unfused float32 composition — every
// intermediate product rounds to float32 before the following add, just as
// the unfused chain would round it into an intermediate float32 tensor.
// Scale constants arrive already rounded to float32 (the lowering converts
// each op's float64 attribute once at plan-compile time).

// AddScaledInto32 sets out[i] = a[i] + s*b[i] and returns out.
func AddScaledInto32(out, a, b *Tensor, s float32) *Tensor {
	sameShape3("AddScaled32", a, b)
	ad, bd := a.data32, b.data32[:len(a.data32)]
	od := out.data32[:len(a.data32)]
	for i := range od {
		t := s * bd[i]
		od[i] = ad[i] + t
	}
	return out
}

// MulAddInto32 sets out[i] = a[i] + b[i]*c[i] and returns out.
func MulAddInto32(out, a, b, c *Tensor) *Tensor {
	sameShape3("MulAdd32", a, b)
	sameShape3("MulAdd32", b, c)
	ad, bd, cd := a.data32, b.data32[:len(a.data32)], c.data32[:len(a.data32)]
	od := out.data32[:len(a.data32)]
	for i := range od {
		t := bd[i] * cd[i]
		od[i] = ad[i] + t
	}
	return out
}

// AddMulInto32 sets out[i] = a[i]*b[i] + c[i] and returns out.
func AddMulInto32(out, a, b, c *Tensor) *Tensor {
	sameShape3("AddMul32", a, b)
	sameShape3("AddMul32", b, c)
	ad, bd, cd := a.data32, b.data32[:len(a.data32)], c.data32[:len(a.data32)]
	od := out.data32[:len(a.data32)]
	for i := range od {
		t := ad[i] * bd[i]
		od[i] = t + cd[i]
	}
	return out
}

// ReluBackwardInto32 sets out[i] = gy[i] * mask(x[i]) where mask is 1 for
// x > 0 else 0, and returns out. Like the float64 kernel it multiplies
// literally rather than branch-selecting, preserving -0 signs.
func ReluBackwardInto32(out, gy, x *Tensor) *Tensor {
	sameShape3("ReluBackward32", gy, x)
	gd, xd := gy.data32, x.data32[:len(gy.data32)]
	od := out.data32[:len(gy.data32)]
	for i := range od {
		var m float32
		if xd[i] > 0 {
			m = 1
		}
		od[i] = gd[i] * m
	}
	return out
}
