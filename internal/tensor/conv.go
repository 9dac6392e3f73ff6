package tensor

import (
	"fmt"
	"sync/atomic"
)

// Convolution kernels.
//
// The forward and filter-gradient passes read the NHWC input in place. Take
// output line (b, oy) and kernel row ky: the patch of output column ox
// starts at input row oy·SH + ky of image b, column ox·SW, and its KW·C
// elements are contiguous. Over the line's OW columns that is a strided
// [OW, KW·C] operand, rows SW·C apart, which matMulRows reads directly: the
// forward pass multiplies it by filter row ky into the line's outputs, the
// filter-gradient pass multiplies its transpose by the line's output
// gradient into dW's rows of ky. Padded convs copy the rows a line reads
// into a zero-bordered line buffer first, so padding is explicit zeros and
// 0·Inf stays NaN; a chunk holds one buffer of KH padded input rows. Nothing
// is unfolded: the only im2col is the Im2Col oracle's.
//
// The backward-input pass keeps the tiled im2col pipeline: the patch
// gradients of a row-panel of the output come out of the blocked matmul core
// into a pooled scratch buffer of ConvPanelRows rows and are folded back
// (Col2Im) before the next panel reuses the buffer. Its output rows overlap,
// so folding in ascending row order is what keeps the adds in order. Peak
// conv scratch is O(workers·panel·KH·KW·C), and the panel self-caps so
// in-flight scratch never exceeds a quarter of the full materialization (see
// convPanelFor).
//
// Above matmulParallelThreshold multiply-adds each pass forks chunks that
// write disjoint outputs (see kernels.go): the forward pass ranges of output
// lines, the backward-input pass one image per chunk (Col2Im folds an
// image's rows only into that image), and the filter-gradient pass row
// slices of dW, each over every line. K is split only at kernel-row
// boundaries and lines and panels run in ascending order, so every output
// element keeps the ascending-k accumulation sequence of the full
// materialization and every path stays bit-for-bit identical to the naive
// references.

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

// defaultConvPanelRows is the default output-row count per backward-input
// panel: 64
// rows keep the panel well inside L2 for typical KH*KW*C while giving the
// 4-row register tiles of the matmul core full panels to chew on.
const defaultConvPanelRows = 64

var convPanelRows atomic.Int32

// ConvPanelRows reports the current conv panel size.
func ConvPanelRows() int {
	if v := convPanelRows.Load(); v > 0 {
		return int(v)
	}
	return defaultConvPanelRows
}

// Conv scratch accounting: current and high-water-mark float64 elements
// checked out by conv panels and line buffers, the measurement behind
// TestConvScratchPeakCapped.
var (
	convScratchCur  atomic.Int64
	convScratchPeak atomic.Int64
)

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

// convLineChunks picks the forward conv's chunk count: ranges of output
// lines, up to 4 per worker, above the threshold.
func convLineChunks(lines, madds int) int {
	if !forks(madds) {
		return 1
	}
	return min(lines, 4*KernelParallelism())
}

// convBackwardInputChunks picks the backward-input chunk count: one image
// each above the threshold.
func convBackwardInputChunks(n, rows, ckk, oc int) int {
	if !forks(rows * ckk * oc) {
		return 1
	}
	return n
}

// convFilterChunks picks the filter-gradient chunk count: slices of at least
// 32 of dW's rows, up to 4 per worker, above the threshold.
func convFilterChunks(dwRows, madds int) int {
	if !forks(madds) {
		return 1
	}
	return max(1, min(dwRows/32, 4*KernelParallelism()))
}

// convLines serves a chunk the input rows of its output lines, in the
// coordinates of the zero-padded input: row ky of line l = (b, oy) is padded
// row oy·SH + ky of image b, stride elements after row ky-1, and the patch of
// column ox starts ox·SW·C elements into it. Unpadded, the rows are the
// input's own; padded, line copies them into a zero-bordered buffer.
type convLines struct {
	in          []float64
	h, w, c, oh int
	p           ConvParams
	stride      int
	buf         *Tensor // KH padded rows, when the conv pads
}

func newConvLines(input *Tensor, kh, oh int, p ConvParams) convLines {
	h, w, c := input.shape[1], input.shape[2], input.shape[3]
	r := convLines{in: input.data, h: h, w: w, c: c, oh: oh, p: p, stride: w * c}
	if p.PadH > 0 || p.PadW > 0 {
		r.stride = (w + 2*p.PadW) * c
		r.buf = convScratchGet(kh * r.stride)
	}
	return r
}

// line returns the input rows of output line l, of which rows [ky0, ky1) are
// valid.
func (r *convLines) line(l, ky0, ky1 int) []float64 {
	b, oy := l/r.oh, l%r.oh
	iy0 := oy*r.p.StrideH - r.p.PadH
	if r.buf == nil {
		return r.in[(b*r.h+iy0)*r.stride:]
	}
	wc, pw := r.w*r.c, r.p.PadW*r.c
	for ky := ky0; ky < ky1; ky++ {
		d := r.buf.data[ky*r.stride : (ky+1)*r.stride]
		if iy := iy0 + ky; iy < 0 || iy >= r.h {
			clear(d)
		} else {
			clear(d[:pw])
			copy(d[pw:pw+wc], r.in[(b*r.h+iy)*wc:])
			clear(d[pw+wc:])
		}
	}
	return r.buf.data
}

func (r *convLines) release() {
	if r.buf != nil {
		convScratchPut(r.buf)
	}
}

// convForwardLines accumulates output lines [l0, l1) of the convolution of
// input by filter into out: per line, one product per kernel row of the
// line's strided input view and that row of the filter.
func convForwardLines(out, input, filter *Tensor, l0, l1 int, p ConvParams) {
	_, _, _, c, kh, kw, oc, oh, ow := convDims(input, filter, p)
	od, fd, kwc, rs := out.data, filter.data, kw*c, p.StrideW*c
	src := newConvLines(input, kh, oh, p)
	for l := l0; l < l1; l++ {
		rows := src.line(l, 0, kh)
		o := od[l*ow*oc : (l+1)*ow*oc]
		for ky := 0; ky < kh; ky++ {
			matMulRows(rows[ky*src.stride:], fd[ky*kwc*oc:], o, 0, ow, kwc, oc, rs, 1)
		}
	}
	src.release()
}

// convFilterRows accumulates rows [r0, r1) of the filter gradient dw, viewed
// as [KH·KW·C, OC], over every output line in ascending order: per line and
// kernel row, the transpose of the line's strided input view times the
// line's output gradient.
func convFilterRows(dw, input, gradOut *Tensor, r0, r1 int, p ConvParams) {
	_, _, _, c, kh, kw, oc, oh, ow := convDims(input, dw, p)
	dd, gd, kwc, ks := dw.data, gradOut.data, kw*c, p.StrideW*c
	ky0, ky1 := r0/kwc, (r1+kwc-1)/kwc
	src := newConvLines(input, kh, oh, p)
	for l := 0; l < input.shape[0]*oh; l++ {
		rows := src.line(l, ky0, ky1)
		g := gd[l*ow*oc : (l+1)*ow*oc]
		for ky := ky0; ky < ky1; ky++ {
			i0, i1 := max(r0-ky*kwc, 0), min(r1-ky*kwc, kwc)
			matMulRows(rows[ky*src.stride:], g, dd[ky*kwc*oc:(ky+1)*kwc*oc], i0, i1, ow, oc, 1, ks)
		}
	}
	src.release()
}

// Im2Col unfolds input [N,H,W,C] into patches [N*OH*OW, KH*KW*C] so that
// convolution becomes a single matmul against the reshaped filter. In NHWC a
// kernel row's pixels are one contiguous run of input elements, copied at
// once where padding does not cut it and pixel by pixel where it does;
// padding stays the zeros New wrote.
// oracle: the unfold behind Conv2DNaive and Conv2DBackwardFilterNaive.
func Im2Col(input *Tensor, kh, kw int, p ConvParams) *Tensor {
	if input.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Im2Col wants NHWC rank-4 input, got %v", input.shape))
	}
	n, h, w, c := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	oh, ow := p.ConvOutDims(h, w, kh, kw)
	cols := New(n*oh*ow, kh*kw*c)
	src, width, run := input.data, kh*kw*c, kw*c
	for row := 0; row < n*oh*ow; row++ {
		b := row / (oh * ow)
		rem := row - b*oh*ow
		oy := rem / ow
		ox := rem - oy*ow
		iy0 := oy*p.StrideH - p.PadH
		ix0 := ox*p.StrideW - p.PadW
		d := cols.data[row*width : (row+1)*width]
		for ky := 0; ky < kh; ky++ {
			iy := iy0 + ky
			if iy < 0 || iy >= h {
				continue
			}
			dk := d[ky*run : (ky+1)*run]
			rowBase := (b*h + iy) * w * c
			if ix0 >= 0 && ix0+kw <= w {
				copy(dk, src[rowBase+ix0*c:])
				continue
			}
			for kx := 0; kx < kw; kx++ {
				if ix := ix0 + kx; ix >= 0 && ix < w {
					copy(dk[kx*c:kx*c+c], src[rowBase+ix*c:])
				}
			}
		}
	}
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
// oracle: the fold behind Conv2DBackwardInputNaive.
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
	// The in-place passes read every kernel row and column of a patch
	// inside the (padded) input; a kernel that overhangs it has no output.
	if kh > h+2*p.PadH || kw > w+2*p.PadW {
		panic(fmt.Sprintf("tensor: Conv2D kernel %dx%d exceeds input %v padded by %d,%d", kh, kw, input.shape, p.PadH, p.PadW))
	}
	oh, ow = p.ConvOutDims(h, w, kh, kw)
	return
}

// Conv2D computes an NHWC convolution: input [N,H,W,C] * filter [KH,KW,C,OC]
// -> [N,OH,OW,OC], reading the input in place.
func Conv2D(input, filter *Tensor, p ConvParams) *Tensor {
	n, _, _, _, _, _, oc, oh, ow := convDims(input, filter, p)
	return Conv2DInto(New(n, oh, ow, oc), input, filter, p)
}

// Conv2DInto computes Conv2D into out, which must be a zero-filled
// [N,OH,OW,OC] tensor (as produced by New or Arena.Get), and returns out.
// Output lines are disjoint, so above the threshold ranges of them are
// chunks.
func Conv2DInto(out, input, filter *Tensor, p ConvParams) *Tensor {
	n, _, _, c, kh, kw, oc, oh, ow := convDims(input, filter, p)
	if !SameShape(out.shape, []int{n, oh, ow, oc}) {
		panic(fmt.Sprintf("tensor: Conv2DInto out shape %v, want [%d %d %d %d]", out.shape, n, oh, ow, oc))
	}
	lines := n * oh
	if lines == 0 || ow == 0 || oc == 0 {
		return out
	}
	chunks := convLineChunks(lines, lines*ow*kh*kw*c*oc)
	parallelFor(chunks, func(ch int) {
		convForwardLines(out, input, filter, lines*ch/chunks, lines*(ch+1)/chunks, p)
	})
	return out
}

// Conv2DNaive is the seed full-materialization convolution: one monolithic
// im2col matrix fed through the serial naive matmul. It is the arithmetic
// reference Conv2D is tested bit-for-bit against.
// oracle: TestConvTiledMatchesNaiveBitForBit checks Conv2D against it.
func Conv2DNaive(input, filter *Tensor, p ConvParams) *Tensor {
	n, _, _, c, kh, kw, oc, oh, ow := convDims(input, filter, p)
	cols := Im2Col(input, kh, kw, p)    // [N*OH*OW, KH*KW*C]
	fmat := filter.Reshape(kh*kw*c, oc) // [KH*KW*C, OC]
	out := MatMulNaive(cols, fmat)      // [N*OH*OW, OC]
	return out.Reshape(n, oh, ow, oc)
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
// oracle: TestConvTiledMatchesNaiveBitForBit checks the input gradient against it.
func Conv2DBackwardInputNaive(gradOut, filter *Tensor, inputShape []int, p ConvParams) *Tensor {
	kh, kw, c, oc := filter.shape[0], filter.shape[1], filter.shape[2], filter.shape[3]
	n, h, w := inputShape[0], inputShape[1], inputShape[2]
	gm := gradOut.Reshape(-1, oc)           // [N*OH*OW, OC]
	fmat := filter.Reshape(kh*kw*c, oc)     // [KH*KW*C, OC]
	colsGrad := MatMulTransBNaive(gm, fmat) // [N*OH*OW, KH*KW*C]
	return Col2Im(colsGrad, n, h, w, c, kh, kw, p)
}

// Conv2DBackwardFilterInto computes dL/dFilter into out, a zero-filled
// [KH,KW,C,OC] tensor, and returns out. Each element of the filter gradient
// sums products over all N·OH·OW patch rows; lines accumulate into it in
// ascending order, reproducing the accumulation sequence of the monolithic
// aᵀ x gy product. Above the threshold each slice of dW's rows is a chunk
// that runs over every line.
func Conv2DBackwardFilterInto(out, input, gradOut *Tensor, p ConvParams) *Tensor {
	n, _, _, c, kh, kw, oc, oh, ow := convDims(input, out, p)
	lines, dwRows := n*oh, kh*kw*c
	if lines == 0 || ow == 0 || oc == 0 {
		return out
	}
	chunks := convFilterChunks(dwRows, lines*ow*dwRows*oc)
	parallelFor(chunks, func(ch int) {
		convFilterRows(out, input, gradOut, dwRows*ch/chunks, dwRows*(ch+1)/chunks, p)
	})
	return out
}

// Conv2DBackwardFilterNaive is the full-materialization reference for the
// filter gradient.
// oracle: TestConvTiledMatchesNaiveBitForBit checks the filter gradient against it.
func Conv2DBackwardFilterNaive(input, gradOut *Tensor, filterShape []int, p ConvParams) *Tensor {
	kh, kw, c, oc := filterShape[0], filterShape[1], filterShape[2], filterShape[3]
	cols := Im2Col(input, kh, kw, p)     // [N*OH*OW, KH*KW*C]
	gm := gradOut.Reshape(-1, oc)        // [N*OH*OW, OC]
	fgrad := MatMulTransANaive(cols, gm) // [KH*KW*C, OC]
	return fgrad.Reshape(kh, kw, c, oc)
}
