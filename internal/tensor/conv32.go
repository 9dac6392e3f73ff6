package tensor

// Float32 forward convolution — the lowered-path twin of Conv2D. It reuses
// the same tiled im2col pipeline (panel sizing, scratch accounting, worker
// fan-out) with float32 panels and the float32 matmul core. Only the forward
// pass is lowered: training stays float64, so a lowered plan that reaches a
// conv backward op falls back to the generic convert-run-convert path in
// internal/graph.

func convScratchGet32(n int) *Tensor {
	cur := convScratchCur.Add(int64(n))
	for {
		peak := convScratchPeak.Load()
		if cur <= peak || convScratchPeak.CompareAndSwap(peak, cur) {
			break
		}
	}
	return getScratch32(n)
}

func convScratchPut32(t *Tensor) {
	convScratchCur.Add(-int64(len(t.data32)))
	putScratch(t)
}

// Conv2D32 computes an NHWC float32 convolution: input [N,H,W,C] * filter
// [KH,KW,C,OC] -> [N,OH,OW,OC], via the same tiled im2col pipeline as
// Conv2D. Both operands must be float32.
func Conv2D32(input, filter *Tensor, p ConvParams) *Tensor {
	n, _, _, _, kh, kw, oc, oh, ow := convDims(input, filter, p)
	if input.dtype != Float32 || filter.dtype != Float32 {
		panic("tensor: Conv2D32 wants float32 operands")
	}
	ckk := kh * kw * input.shape[3]
	rows := n * oh * ow
	out := New32(n, oh, ow, oc)
	if rows == 0 || oc == 0 {
		return out
	}
	fd := filter.data32
	od := out.data32
	panel0 := convPanelFor(rows, 1)
	parts := convParts(rows, ckk, oc, panel0)
	panel := convPanelFor(rows, parts)
	parallelFor(parts, func(pt int) {
		r0, r1 := rows*pt/parts, rows*(pt+1)/parts
		if r0 == r1 {
			return
		}
		pr := panel
		if pr > r1-r0 {
			pr = r1 - r0
		}
		scratch := convScratchGet32(pr * ckk)
		for s := r0; s < r1; s += pr {
			e := s + pr
			if e > r1 {
				e = r1
			}
			im2colRows(scratch.data32, input.data32, input.shape, s, e, kh, kw, p)
			matMulRows32(scratch.data32, fd, od[s*oc:e*oc], 0, e-s, ckk, oc)
		}
		convScratchPut32(scratch)
	})
	return out
}

// Conv2DNaive32 is the float32 full-materialization reference: monolithic
// im2col fed through the naive float32 matmul.
func Conv2DNaive32(input, filter *Tensor, p ConvParams) *Tensor {
	n, _, _, c, kh, kw, oc, oh, ow := convDims(input, filter, p)
	rows := n * oh * ow
	ckk := kh * kw * c
	cols := New32(rows, ckk)
	im2colRows(cols.data32, input.data32, input.shape, 0, rows, kh, kw, p)
	fmat := filter.Reshape(ckk, oc)
	out := MatMulNaive32(cols, fmat)
	return out.Reshape(n, oh, ow, oc)
}
