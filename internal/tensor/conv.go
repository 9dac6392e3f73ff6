package tensor

import (
	"fmt"
	"sync/atomic"
)

// Convolution kernels.
//
// Conv2D and its backward passes lower onto the blocked matmul core through
// im2col, but never materialize the full [N*OH*OW, KH*KW*C] patch matrix:
// the output is tiled over row-panels, each panel's patches are unfolded into
// a pooled scratch buffer of ConvPanelRows rows, multiplied against the
// reshaped filter, and written (forward) or folded back (backward) before the
// next panel reuses the same scratch. Peak conv scratch is therefore
// O(workers * panel * KH*KW*C) instead of O(N*OH*OW * KH*KW*C); the panel
// size self-caps so in-flight scratch never exceeds a quarter of the full
// materialization (see convPanelFor).
//
// Above matmulParallelThreshold multiply-adds each pass forks chunks that
// write disjoint outputs (see kernels.go): the forward pass one output panel
// per chunk, the backward-input pass one image per chunk (Col2Im folds an
// image's rows only into that image), and the backward-filter pass one group
// of kernel positions per chunk (each position owns its own rows of dW).
// Inside a chunk, panels run in ascending row order, so every output
// element keeps the accumulation sequence of the full materialization and
// every path stays bit-for-bit identical to the naive references.

// ConvParams describes a 2-D convolution in NHWC layout with filter layout
// [KH, KW, InC, OutC].
type ConvParams struct {
	StrideH, StrideW int
	PadH, PadW       int // symmetric zero padding
}

// ConvOutDims returns the spatial output dims for an input of h x w.
func (p ConvParams) ConvOutDims(h, w, kh, kw int) (oh, ow int) {
	oh = (h+2*p.PadH-kh)/p.StrideH + 1
	ow = (w+2*p.PadW-kw)/p.StrideW + 1
	return oh, ow
}

// SamePadding returns padding that preserves spatial dims at stride 1 (and
// ceil-divides at larger strides, matching TF "SAME" for odd kernels).
func SamePadding(kh, kw int) (padH, padW int) {
	return (kh - 1) / 2, (kw - 1) / 2
}

// defaultConvPanelRows is the default output-row count per im2col panel: 64
// rows keep the panel well inside L2 for typical KH*KW*C while giving the
// 4-row register tiles of the matmul core full panels to chew on.
const defaultConvPanelRows = 64

var convPanelRows atomic.Int32

// SetConvPanelRows sets the output-row count of the tiled conv pipeline's
// im2col panels. n <= 0 restores the default (64). Panel size is a pure
// memory/latency knob — results are identical at any setting.
func SetConvPanelRows(n int) {
	if n <= 0 {
		n = defaultConvPanelRows
	}
	convPanelRows.Store(int32(n))
}

// ConvPanelRows reports the current conv panel size.
func ConvPanelRows() int {
	if v := convPanelRows.Load(); v > 0 {
		return int(v)
	}
	return defaultConvPanelRows
}

// Conv scratch accounting: current and high-water-mark float64 elements
// checked out by conv panels, the measurement behind
// TestConvScratchPeakCapped.
var (
	convScratchCur  atomic.Int64
	convScratchPeak atomic.Int64
)

// ResetConvScratchStats zeroes the conv scratch high-water mark.
func ResetConvScratchStats() {
	convScratchCur.Store(0)
	convScratchPeak.Store(0)
}

// ConvScratchPeak reports the peak number of float64 scratch elements held
// concurrently by conv panels since the last reset.
func ConvScratchPeak() int64 { return convScratchPeak.Load() }

func convScratchGet(n int) *Tensor {
	cur := convScratchCur.Add(int64(n))
	for {
		peak := convScratchPeak.Load()
		if cur <= peak || convScratchPeak.CompareAndSwap(peak, cur) {
			break
		}
	}
	return getScratch(n)
}

func convScratchPut(t *Tensor) {
	convScratchCur.Add(-int64(len(t.data)))
	putScratch(t)
}

// convPanelFor picks the panel size for a conv over `rows` output rows split
// across `parts` workers: the configured panel, shrunk so the total in-flight
// scratch (parts * panel rows) stays at or below a quarter of the full
// materialization whenever rows is large enough to matter.
func convPanelFor(rows, parts int) int {
	panel := ConvPanelRows()
	if cap := rows / (4 * parts); cap >= 1 && panel > cap {
		panel = cap
	}
	if panel > rows {
		panel = rows
	}
	return panel
}

// convForwardChunks picks the forward conv's chunk count and panel size: one
// chunk of full panels below the threshold, one panel per chunk above it,
// with panels sized for every worker holding one at once.
func convForwardChunks(rows, ckk, oc int) (chunks, panel int) {
	if !forks(rows * ckk * oc) {
		return 1, convPanelFor(rows, 1)
	}
	panel = convPanelFor(rows, KernelParallelism())
	return (rows + panel - 1) / panel, panel
}

// convBackwardInputChunks picks the backward-input chunk count: one image
// each above the threshold.
func convBackwardInputChunks(n, rows, ckk, oc int) int {
	if !forks(rows * ckk * oc) {
		return 1
	}
	return n
}

// convBackwardFilterChunks picks the backward-filter chunk count: groups of
// whole kernel positions of at least 32 rows of dW (C rows per position)
// above the threshold.
func convBackwardFilterChunks(rows, kk, c, oc int) int {
	if !forks(rows * kk * c * oc) {
		return 1
	}
	return max(1, kk/((32+c-1)/c))
}

// im2colRows unfolds output rows [r0, r1) of the patch matrix of an NHWC
// input (src, of the given shape) into dst, keeping only the columns of
// kernel positions [k0, k1) (position ky*KW+kx, C columns each), so dst must
// hold (r1-r0)*(k1-k0)*C elements. Padded regions are written as explicit
// zeros, so dst may be arbitrary reused scratch.
func im2colRows(dst, src []float64, shape []int, r0, r1, kh, kw, k0, k1 int, p ConvParams) {
	h, w, c := shape[1], shape[2], shape[3]
	oh, ow := p.ConvOutDims(h, w, kh, kw)
	width := (k1 - k0) * c
	for row := r0; row < r1; row++ {
		b := row / (oh * ow)
		rem := row - b*oh*ow
		oy := rem / ow
		ox := rem - oy*ow
		iy0 := oy*p.StrideH - p.PadH
		ix0 := ox*p.StrideW - p.PadW
		d := dst[(row-r0)*width : (row-r0+1)*width]
		imgBase := b * h * w * c
		di := 0
		for ky := k0 / kw; ky*kw < k1; ky++ {
			kx0, kx1 := max(k0-ky*kw, 0), min(k1-ky*kw, kw)
			run := (kx1 - kx0) * c
			iy := iy0 + ky
			if iy < 0 || iy >= h {
				clear(d[di : di+run])
				di += run
				continue
			}
			rowBase := imgBase + iy*w*c
			// Where padding does not cut it, a kernel row's pixels are one
			// contiguous run of input elements.
			if ix0+kx0 >= 0 && ix0+kx1 <= w {
				copy(d[di:di+run], src[rowBase+(ix0+kx0)*c:])
				di += run
				continue
			}
			for kx := kx0; kx < kx1; kx++ {
				ix := ix0 + kx
				if ix < 0 || ix >= w {
					clear(d[di : di+c])
					di += c
					continue
				}
				copy(d[di:di+c], src[rowBase+ix*c:rowBase+ix*c+c])
				di += c
			}
		}
	}
}

// Im2Col unfolds input [N,H,W,C] into patches [N*OH*OW, KH*KW*C] so that
// convolution becomes a single matmul against the reshaped filter.
func Im2Col(input *Tensor, kh, kw int, p ConvParams) *Tensor {
	if input.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Im2Col wants NHWC rank-4 input, got %v", input.shape))
	}
	n, h, w, c := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	oh, ow := p.ConvOutDims(h, w, kh, kw)
	cols := New(n*oh*ow, kh*kw*c)
	im2colRows(cols.data, input.data, input.shape, 0, n*oh*ow, kh, kw, 0, kh*kw, p)
	return cols
}

// col2imRows folds patch-gradient rows [r0, r1) (held in src, (r1-r0) rows of
// KH*KW*C) back into the input-shaped gradient out, accumulating overlapping
// contributions in ascending row order.
func col2imRows(out *Tensor, src []float64, r0, r1, kh, kw int, p ConvParams) {
	h, w, c := out.shape[1], out.shape[2], out.shape[3]
	oh, ow := p.ConvOutDims(h, w, kh, kw)
	ckk := kh * kw * c
	for row := r0; row < r1; row++ {
		b := row / (oh * ow)
		rem := row - b*oh*ow
		oy := rem / ow
		ox := rem - oy*ow
		iy0 := oy*p.StrideH - p.PadH
		ix0 := ox*p.StrideW - p.PadW
		s := src[(row-r0)*ckk : (row-r0+1)*ckk]
		imgBase := b * h * w * c
		si := 0
		for ky := 0; ky < kh; ky++ {
			iy := iy0 + ky
			if iy < 0 || iy >= h {
				si += kw * c
				continue
			}
			rowBase := imgBase + iy*w*c
			for kx := 0; kx < kw; kx++ {
				ix := ix0 + kx
				if ix < 0 || ix >= w {
					si += c
					continue
				}
				dst := out.data[rowBase+ix*c : rowBase+ix*c+c]
				for j := 0; j < c; j++ {
					dst[j] += s[si+j]
				}
				si += c
			}
		}
	}
}

// Col2Im folds patch gradients [N*OH*OW, KH*KW*C] back into an input-shaped
// gradient [N,H,W,C], accumulating overlapping contributions. The adjoint of
// Im2Col.
func Col2Im(cols *Tensor, n, h, w, c, kh, kw int, p ConvParams) *Tensor {
	out := New(n, h, w, c)
	oh, ow := p.ConvOutDims(h, w, kh, kw)
	col2imRows(out, cols.data, 0, n*oh*ow, kh, kw, p)
	return out
}

// convDims validates and extracts the common conv dimensions.
func convDims(input, filter *Tensor, p ConvParams) (n, h, w, c, kh, kw, oc, oh, ow int) {
	if input.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D wants NHWC rank-4 input, got %v", input.shape))
	}
	if filter.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D wants rank-4 filter, got %v", filter.shape))
	}
	kh, kw, c, oc = filter.shape[0], filter.shape[1], filter.shape[2], filter.shape[3]
	if input.shape[3] != c {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch input %v filter %v", input.shape, filter.shape))
	}
	n, h, w = input.shape[0], input.shape[1], input.shape[2]
	oh, ow = p.ConvOutDims(h, w, kh, kw)
	return
}

// Conv2D computes an NHWC convolution: input [N,H,W,C] * filter [KH,KW,C,OC]
// -> [N,OH,OW,OC], via the tiled im2col pipeline.
func Conv2D(input, filter *Tensor, p ConvParams) *Tensor {
	n, _, _, _, _, _, oc, oh, ow := convDims(input, filter, p)
	return Conv2DInto(New(n, oh, ow, oc), input, filter, p)
}

// Conv2DInto computes Conv2D into out, which must be a zero-filled
// [N,OH,OW,OC] tensor (as produced by New or Arena.Get), and returns out.
// Row-panels of the output are disjoint, so above the threshold each panel is
// a chunk of its own, unfolded into pooled scratch.
func Conv2DInto(out, input, filter *Tensor, p ConvParams) *Tensor {
	n, _, _, _, kh, kw, oc, oh, ow := convDims(input, filter, p)
	if !SameShape(out.shape, []int{n, oh, ow, oc}) {
		panic(fmt.Sprintf("tensor: Conv2DInto out shape %v, want [%d %d %d %d]", out.shape, n, oh, ow, oc))
	}
	ckk := kh * kw * input.shape[3]
	rows := n * oh * ow
	if rows == 0 || oc == 0 {
		return out
	}
	fd := filter.data
	od := out.data
	chunks, panel := convForwardChunks(rows, ckk, oc)
	parallelFor(chunks, func(ch int) {
		r0, r1 := rows*ch/chunks, rows*(ch+1)/chunks
		pr := min(panel, r1-r0)
		scratch := convScratchGet(pr * ckk)
		for s := r0; s < r1; s += pr {
			e := min(s+pr, r1)
			im2colRows(scratch.data, input.data, input.shape, s, e, kh, kw, 0, kh*kw, p)
			matMulRows(scratch.data, fd, od[s*oc:e*oc], 0, e-s, ckk, oc, ckk, 1)
		}
		convScratchPut(scratch)
	})
	return out
}

// Conv2DNaive is the seed full-materialization convolution: one monolithic
// im2col matrix fed through the serial naive matmul. It is the arithmetic
// reference the tiled pipeline is tested bit-for-bit against.
func Conv2DNaive(input, filter *Tensor, p ConvParams) *Tensor {
	n, _, _, c, kh, kw, oc, oh, ow := convDims(input, filter, p)
	cols := Im2Col(input, kh, kw, p)    // [N*OH*OW, KH*KW*C]
	fmat := filter.Reshape(kh*kw*c, oc) // [KH*KW*C, OC]
	out := MatMulNaive(cols, fmat)      // [N*OH*OW, OC]
	return out.Reshape(n, oh, ow, oc)
}

// Conv2DBackwardInput returns dL/dInput for a Conv2D.
func Conv2DBackwardInput(gradOut, filter *Tensor, inputShape []int, p ConvParams) *Tensor {
	return Conv2DBackwardInputInto(New(inputShape...), gradOut, filter, p)
}

// Conv2DBackwardInputInto computes dL/dInput into out, a zero-filled tensor
// of the forward input's shape [N,H,W,C], and returns out. Col2Im accumulates
// overlapping contributions, but only within an image: above the threshold
// each image is a chunk. Inside a chunk panels run in ascending row order,
// the order of the full-materialization path, and each panel's matmul still
// uses the blocked core.
func Conv2DBackwardInputInto(out, gradOut, filter *Tensor, p ConvParams) *Tensor {
	kh, kw, c, oc := filter.shape[0], filter.shape[1], filter.shape[2], filter.shape[3]
	if out.Rank() != 4 || out.shape[3] != c {
		panic(fmt.Sprintf("tensor: Conv2DBackwardInputInto out shape %v for filter %v", out.shape, filter.shape))
	}
	n, h, w := out.shape[0], out.shape[1], out.shape[2]
	oh, ow := p.ConvOutDims(h, w, kh, kw)
	rows := n * oh * ow
	if rows == 0 {
		return out
	}
	ckk := kh * kw * c
	gm := gradOut.data // [rows, OC] viewed flat
	// Transpose the filter once: [KH*KW*C, OC] -> [OC, KH*KW*C].
	ft := convScratchGet(oc * ckk)
	transposeInto(ft.data, filter.data, ckk, oc)
	chunks, panel := convBackwardInputChunks(n, rows, ckk, oc), convPanelFor(rows, 1)
	if chunks > 1 {
		panel = convPanelFor(rows, KernelParallelism())
	}
	parallelFor(chunks, func(ch int) {
		r0, r1 := n*ch/chunks*oh*ow, n*(ch+1)/chunks*oh*ow
		pr := min(panel, r1-r0)
		colsPanel := convScratchGet(pr * ckk)
		for s := r0; s < r1; s += pr {
			e := min(s+pr, r1)
			cp := colsPanel.data[:(e-s)*ckk]
			clear(cp)
			// colsGrad[s:e] = gradOut[s:e] x filterᵀ.
			matMulCore(gm[s*oc:e*oc], ft.data, cp, e-s, oc, ckk, oc, 1)
			col2imRows(out, cp, s, e, kh, kw, p)
		}
		convScratchPut(colsPanel)
	})
	convScratchPut(ft)
	return out
}

// Conv2DBackwardInputNaive is the full-materialization reference for the
// input gradient.
func Conv2DBackwardInputNaive(gradOut, filter *Tensor, inputShape []int, p ConvParams) *Tensor {
	kh, kw, c, oc := filter.shape[0], filter.shape[1], filter.shape[2], filter.shape[3]
	n, h, w := inputShape[0], inputShape[1], inputShape[2]
	gm := gradOut.Reshape(-1, oc)       // [N*OH*OW, OC]
	fmat := filter.Reshape(kh*kw*c, oc) // [KH*KW*C, OC]
	colsGrad := MatMulTransB(gm, fmat)  // [N*OH*OW, KH*KW*C]
	return Col2Im(colsGrad, n, h, w, c, kh, kw, p)
}

// Conv2DBackwardFilter returns dL/dFilter for a Conv2D.
func Conv2DBackwardFilter(input, gradOut *Tensor, filterShape []int, p ConvParams) *Tensor {
	return Conv2DBackwardFilterInto(New(filterShape...), input, gradOut, p)
}

// Conv2DBackwardFilterInto computes dL/dFilter into out, a zero-filled
// [KH,KW,C,OC] tensor, and returns out. Each output element of the filter
// gradient sums products over all N*OH*OW patch rows; panels accumulate into
// the gradient in ascending row order, reproducing the accumulation sequence
// of the monolithic aᵀ x gy product. Kernel position (ky, kx) owns C rows of
// dW, so above the threshold each group of positions is a chunk that unfolds
// only its own columns of every panel. The matmul core reads those columns as
// their transpose in place, and the chunks' column slices add up to one
// panel, the only scratch.
func Conv2DBackwardFilterInto(out, input, gradOut *Tensor, p ConvParams) *Tensor {
	if out.Rank() != 4 || input.Rank() != 4 || out.shape[2] != input.shape[3] {
		panic(fmt.Sprintf("tensor: Conv2DBackwardFilterInto out shape %v for input %v", out.shape, input.shape))
	}
	kh, kw, c, oc := out.shape[0], out.shape[1], out.shape[2], out.shape[3]
	n, h, w := input.shape[0], input.shape[1], input.shape[2]
	oh, ow := p.ConvOutDims(h, w, kh, kw)
	rows := n * oh * ow
	if rows == 0 {
		return out
	}
	kk := kh * kw
	gm := gradOut.data // [rows, OC] viewed flat
	panel := convPanelFor(rows, 1)
	colsPanel := convScratchGet(panel * kk * c)
	chunks := convBackwardFilterChunks(rows, kk, c, oc)
	parallelFor(chunks, func(ch int) {
		k0, k1 := kk*ch/chunks, kk*(ch+1)/chunks
		d0, dn := k0*c, (k1-k0)*c // the chunk's first row of dW, and its row count
		cols := colsPanel.data[panel*d0 : panel*(d0+dn)]
		for s := 0; s < rows; s += panel {
			e := min(s+panel, rows)
			im2colRows(cols, input.data, input.shape, s, e, kh, kw, k0, k1, p)
			// dW[d0:d0+dn] += colsᵀ[s:e] x gradOut[s:e]; the core accumulates
			// in ascending row order.
			matMulCore(cols, gm[s*oc:e*oc], out.data[d0*oc:(d0+dn)*oc], dn, e-s, oc, 1, dn)
		}
	})
	convScratchPut(colsPanel)
	return out
}

// Conv2DBackwardFilterNaive is the full-materialization reference for the
// filter gradient.
func Conv2DBackwardFilterNaive(input, gradOut *Tensor, filterShape []int, p ConvParams) *Tensor {
	kh, kw, c, oc := filterShape[0], filterShape[1], filterShape[2], filterShape[3]
	cols := Im2Col(input, kh, kw, p) // [N*OH*OW, KH*KW*C]
	gm := gradOut.Reshape(-1, oc)    // [N*OH*OW, OC]
	fgrad := MatMulTransA(cols, gm)  // [KH*KW*C, OC]
	return fgrad.Reshape(kh, kw, c, oc)
}
