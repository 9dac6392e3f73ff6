package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// naiveConv2D is a direct quadruple-loop reference used to validate the
// im2col fast path.
func naiveConv2D(input, filter *Tensor, p ConvParams) *Tensor {
	n, h, w, c := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	kh, kw, _, oc := filter.Dim(0), filter.Dim(1), filter.Dim(2), filter.Dim(3)
	oh, ow := p.ConvOutDims(h, w, kh, kw)
	out := New(n, oh, ow, oc)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for f := 0; f < oc; f++ {
					sum := 0.0
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy := oy*p.StrideH - p.PadH + ky
							ix := ox*p.StrideW - p.PadW + kx
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							for ch := 0; ch < c; ch++ {
								sum += input.At(b, iy, ix, ch) * filter.At(ky, kx, ch, f)
							}
						}
					}
					out.Set(sum, b, oy, ox, f)
				}
			}
		}
	}
	return out
}

func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n, h, w, c, kh, kw, oc, sh, sw, ph, pw int
	}{
		{1, 5, 5, 1, 3, 3, 2, 1, 1, 0, 0},
		{2, 8, 8, 3, 3, 3, 4, 2, 2, 1, 1},
		{1, 7, 9, 2, 5, 3, 3, 2, 1, 2, 1},
		{3, 4, 4, 1, 1, 1, 2, 1, 1, 0, 0},
	} {
		in := RandNormal(rng, 0, 1, tc.n, tc.h, tc.w, tc.c)
		f := RandNormal(rng, 0, 1, tc.kh, tc.kw, tc.c, tc.oc)
		p := ConvParams{StrideH: tc.sh, StrideW: tc.sw, PadH: tc.ph, PadW: tc.pw}
		got := Conv2D(in, f, p)
		want := naiveConv2D(in, f, p)
		if !got.AllClose(want, 1e-9) {
			t.Fatalf("conv mismatch for %+v", tc)
		}
	}
}

func TestConvOutDims(t *testing.T) {
	p := ConvParams{StrideH: 4, StrideW: 4, PadH: 0, PadW: 0}
	oh, ow := p.ConvOutDims(84, 84, 8, 8)
	if oh != 20 || ow != 20 {
		t.Fatalf("got %dx%d, want 20x20", oh, ow)
	}
}

func TestSamePaddingPreservesDims(t *testing.T) {
	ph, pw := SamePadding(3, 3)
	p := ConvParams{StrideH: 1, StrideW: 1, PadH: ph, PadW: pw}
	oh, ow := p.ConvOutDims(10, 12, 3, 3)
	if oh != 10 || ow != 12 {
		t.Fatalf("got %dx%d", oh, ow)
	}
}

// TestConvGradientsAdjoint verifies the backward kernels against the adjoint
// identity <Conv(x), gy> == <x, ConvBwdInput(gy)> and the filter analogue.
func TestConvGradientsAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := RandNormal(rng, 0, 1, 2, 6, 6, 2)
	f := RandNormal(rng, 0, 1, 3, 3, 2, 3)
	p := ConvParams{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	out := Conv2D(in, f, p)
	gy := RandNormal(rng, 0, 1, out.Shape()...)

	gin := conv2DBackwardInput(gy, f, in.Shape(), p)
	lhs := Dot(out.Flatten(), gy.Flatten())
	rhs := Dot(in.Flatten(), gin.Flatten())
	// The forward map is linear in the input, so these inner products agree
	// only when in is reused; test the bilinear identity instead:
	// <Conv(x), gy> = <x, Bwd(gy)> holds exactly for linear maps.
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("input adjoint mismatch: %g vs %g", lhs, rhs)
	}

	gf := conv2DBackwardFilter(in, gy, f.Shape(), p)
	rhs2 := Dot(f.Flatten(), gf.Flatten())
	if math.Abs(lhs-rhs2) > 1e-9 {
		t.Fatalf("filter adjoint mismatch: %g vs %g", lhs, rhs2)
	}
}

// TestConvGradientFiniteDifference cross-checks one filter weight's gradient
// against a central finite difference of a scalar loss.
func TestConvGradientFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := RandNormal(rng, 0, 1, 1, 5, 5, 1)
	f := RandNormal(rng, 0, 1, 3, 3, 1, 2)
	p := ConvParams{StrideH: 1, StrideW: 1, PadH: 0, PadW: 0}
	loss := func(filter *Tensor) float64 {
		out := Conv2D(in, filter, p)
		return sumAll(Square(out))
	}
	out := Conv2D(in, f, p)
	gy := Scale(out, 2) // d(sum(out^2))/dout
	gf := conv2DBackwardFilter(in, gy, f.Shape(), p)

	const eps = 1e-6
	for _, k := range []int{0, 7, 13} {
		fp := f.Clone()
		fp.Data()[k] += eps
		fm := f.Clone()
		fm.Data()[k] -= eps
		num := (loss(fp) - loss(fm)) / (2 * eps)
		if math.Abs(num-gf.Data()[k]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("fd mismatch at %d: %g vs %g", k, num, gf.Data()[k])
		}
	}
}

// naiveIm2Col is a direct per-element gather reference for Im2Col.
func naiveIm2Col(input *Tensor, kh, kw int, p ConvParams) *Tensor {
	n, h, w, c := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	oh, ow := p.ConvOutDims(h, w, kh, kw)
	out := New(n*oh*ow, kh*kw*c)
	row := 0
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				col := 0
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						iy := oy*p.StrideH - p.PadH + ky
						ix := ox*p.StrideW - p.PadW + kx
						for ch := 0; ch < c; ch++ {
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								out.Set(input.At(b, iy, ix, ch), row, col)
							}
							col++
						}
					}
				}
				row++
			}
		}
	}
	return out
}

func tensorsBitEqual(a, b *Tensor) bool {
	if !SameShape(a.Shape(), b.Shape()) {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}

// TestIm2ColEdgeCases covers the configurations that used to lean implicitly
// on New() zero-fill: stride > 1 with SAME padding, and kernels larger than
// the input (every patch partially padded). Im2Col is a pure gather, so it
// must match the reference bit-for-bit.
func TestIm2ColEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name               string
		n, h, w, c, kh, kw int
		sh, sw, ph, pw     int
	}{
		{"stride2-same", 2, 9, 9, 2, 3, 3, 2, 2, 1, 1},
		{"stride3-same", 1, 7, 7, 1, 5, 5, 3, 3, 2, 2},
		{"kernel-larger-than-input", 1, 3, 3, 2, 5, 5, 1, 1, 2, 2},
		{"kernel-wider-than-input", 2, 4, 2, 1, 3, 5, 1, 1, 1, 2},
	} {
		in := RandNormal(rng, 0, 1, tc.n, tc.h, tc.w, tc.c)
		p := ConvParams{StrideH: tc.sh, StrideW: tc.sw, PadH: tc.ph, PadW: tc.pw}
		got := Im2Col(in, tc.kh, tc.kw, p)
		want := naiveIm2Col(in, tc.kh, tc.kw, p)
		if !tensorsBitEqual(got, want) {
			t.Fatalf("%s: Im2Col mismatch", tc.name)
		}
		// Col2Im on the same config must satisfy the adjoint identity.
		y := RandNormal(rng, 0, 1, got.Shape()...)
		back := Col2Im(y, tc.n, tc.h, tc.w, tc.c, tc.kh, tc.kw, p)
		lhs := Dot(got.Flatten(), y.Flatten())
		rhs := Dot(in.Flatten(), back.Flatten())
		if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
			t.Fatalf("%s: adjoint mismatch %g vs %g", tc.name, lhs, rhs)
		}
	}
}

// TestIm2ColCol2ImRoundTripProperty: folding the unfolded all-ones input
// counts, for every input cell, the number of patches that cover it. The
// counts are small integers (exact in float64), so the round trip must equal
// an independently computed coverage count exactly.
func TestIm2ColCol2ImRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(2)
		h := 1 + rng.Intn(7)
		w := 1 + rng.Intn(7)
		c := 1 + rng.Intn(3)
		kh := 1 + rng.Intn(5)
		kw := 1 + rng.Intn(5)
		p := ConvParams{
			StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3),
			PadH: rng.Intn(kh), PadW: rng.Intn(kw),
		}
		oh, ow := p.ConvOutDims(h, w, kh, kw)
		if oh < 1 || ow < 1 {
			continue
		}
		ones := Ones(n, h, w, c)
		got := Col2Im(Im2Col(ones, kh, kw, p), n, h, w, c, kh, kw, p)
		want := New(n, h, w, c)
		for b := 0; b < n; b++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy := oy*p.StrideH - p.PadH + ky
							ix := ox*p.StrideW - p.PadW + kx
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							for ch := 0; ch < c; ch++ {
								want.Set(want.At(b, iy, ix, ch)+1, b, iy, ix, ch)
							}
						}
					}
				}
			}
		}
		if !tensorsBitEqual(got, want) {
			t.Fatalf("trial %d (%dx%dx%dx%d k%dx%d %+v): coverage counts differ", trial, n, h, w, c, kh, kw, p)
		}
	}
}

// TestConvKernelLargerThanInput runs the full conv plus both backward passes
// on a kernel that overhangs the input on every side.
func TestConvKernelLargerThanInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := RandNormal(rng, 0, 1, 1, 3, 3, 2)
	f := RandNormal(rng, 0, 1, 5, 5, 2, 3)
	p := ConvParams{StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	got := Conv2D(in, f, p)
	want := naiveConv2D(in, f, p)
	if !got.AllClose(want, 1e-9) {
		t.Fatal("forward mismatch with oversized kernel")
	}
	gy := RandNormal(rng, 0, 1, got.Shape()...)
	gin := conv2DBackwardInput(gy, f, in.Shape(), p)
	lhs := Dot(got.Flatten(), gy.Flatten())
	if rhs := Dot(in.Flatten(), gin.Flatten()); math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("input adjoint mismatch: %g vs %g", lhs, rhs)
	}
	gf := conv2DBackwardFilter(in, gy, f.Shape(), p)
	if rhs := Dot(f.Flatten(), gf.Flatten()); math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("filter adjoint mismatch: %g vs %g", lhs, rhs)
	}
}

// TestConvTiledMatchesNaiveBitForBit is the differential gate for the tiled
// pipeline: forward and both backward passes must reproduce the seed
// full-materialization path bit-for-bit at every panel size and parallelism
// level, because panels and chunks only re-group — never re-order — the
// per-element accumulation sequence. The sixth config forks: one image, which
// the backward-input pass cannot split, and 144 rows of dW shared by four
// workers in the backward-filter pass. The rest are the pixel network's three
// layers (configs/dueling_dqn_pixels.json), at a batch of 8, where conv2
// forks, and of 9, where its 81 output lines split unevenly. A last, padded
// case holds +Inf and NaN.
func TestConvTiledMatchesNaiveBitForBit(t *testing.T) {
	defer SetConvPanelRows(0)
	defer SetKernelParallelism(0)
	rng := rand.New(rand.NewSource(8))
	configs := []struct {
		n, h, w, c, kh, kw, oc, sh, sw, ph, pw int
	}{
		{2, 8, 8, 3, 3, 3, 4, 1, 1, 1, 1},
		{1, 7, 9, 2, 5, 3, 3, 2, 1, 2, 1},
		{2, 6, 6, 2, 3, 3, 5, 2, 2, 1, 1},
		{1, 3, 3, 2, 5, 5, 2, 1, 1, 2, 2}, // kernel larger than input
		{3, 4, 4, 1, 1, 1, 2, 1, 1, 0, 0},
		{1, 48, 48, 16, 3, 3, 32, 1, 1, 1, 1}, // 2304·144·32 multiply-adds: forks
		{8, 84, 84, 1, 8, 8, 16, 4, 4, 0, 0},
		{8, 20, 20, 16, 4, 4, 32, 2, 2, 0, 0}, // 648·256·32 multiply-adds: forks
		{8, 9, 9, 32, 3, 3, 32, 1, 1, 0, 0},
		{9, 84, 84, 1, 8, 8, 16, 4, 4, 0, 0},
		{9, 20, 20, 16, 4, 4, 32, 2, 2, 0, 0},
		{9, 9, 9, 32, 3, 3, 32, 1, 1, 0, 0},
	}
	for _, tc := range configs {
		in := RandNormal(rng, 0, 1, tc.n, tc.h, tc.w, tc.c)
		f := RandNormal(rng, 0, 1, tc.kh, tc.kw, tc.c, tc.oc)
		p := ConvParams{StrideH: tc.sh, StrideW: tc.sw, PadH: tc.ph, PadW: tc.pw}
		wantF := Conv2DNaive(in, f, p)
		gy := RandNormal(rng, 0, 1, wantF.Shape()...)
		wantGI := Conv2DBackwardInputNaive(gy, f, in.Shape(), p)
		wantGF := Conv2DBackwardFilterNaive(in, gy, f.Shape(), p)
		for _, panel := range []int{1, 3, 64} {
			for _, par := range []int{1, 4} {
				SetConvPanelRows(panel)
				SetKernelParallelism(par)
				if got := Conv2D(in, f, p); !tensorsBitEqual(got, wantF) {
					t.Fatalf("forward differs from naive for %+v panel=%d par=%d", tc, panel, par)
				}
				if got := conv2DBackwardInput(gy, f, in.Shape(), p); !tensorsBitEqual(got, wantGI) {
					t.Fatalf("input grad differs from naive for %+v panel=%d par=%d", tc, panel, par)
				}
				if got := conv2DBackwardFilter(in, gy, f.Shape(), p); !tensorsBitEqual(got, wantGF) {
					t.Fatalf("filter grad differs from naive for %+v panel=%d par=%d", tc, panel, par)
				}
			}
		}
	}

	// Padding is explicit zeros. A +Inf filter weight that meets the padding
	// makes 0·Inf = NaN at the border, and so does a +Inf output gradient in
	// the filter gradient; skipping the padding's products would leave ±Inf
	// there. A NaN weight poisons its whole output column.
	in := RandNormal(rng, 0, 1, 2, 7, 7, 3)
	f := RandNormal(rng, 0, 1, 3, 3, 3, 4)
	f.Set(math.Inf(1), 0, 0, 1, 0)
	f.Set(math.NaN(), 1, 1, 0, 2)
	p := ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	wantF := Conv2DNaive(in, f, p)
	gy := RandNormal(rng, 0, 1, wantF.Shape()...)
	wantGI := Conv2DBackwardInputNaive(gy, f, in.Shape(), p)
	gyInf := gy.Clone()
	gyInf.Set(math.Inf(1), 0, 0, 0, 1)
	wantGF := Conv2DBackwardFilterNaive(in, gyInf, f.Shape(), p)
	if !math.IsNaN(wantF.At(0, 0, 0, 0)) || !math.IsInf(wantF.At(0, 1, 1, 0), 0) || !math.IsNaN(wantGF.At(0, 0, 0, 1)) {
		t.Fatal("the padded case does not put 0·Inf where padding meets +Inf")
	}
	for _, par := range []int{1, 4} {
		SetKernelParallelism(par)
		if got := Conv2D(in, f, p); !tensorsBitEqual(got, wantF) {
			t.Fatalf("padded forward with +Inf and NaN weights differs from naive at par=%d", par)
		}
		if got := conv2DBackwardInput(gy, f, in.Shape(), p); !tensorsBitEqual(got, wantGI) {
			t.Fatalf("padded input grad with +Inf and NaN weights differs from naive at par=%d", par)
		}
		if got := conv2DBackwardFilter(in, gyInf, f.Shape(), p); !tensorsBitEqual(got, wantGF) {
			t.Fatalf("padded filter grad with a +Inf output gradient differs from naive at par=%d", par)
		}
	}
}

// TestConvScratchPeakCapped checks that the forward and filter-gradient
// passes stay small at the shape N=8, 32x32x16, 3x3 SAME, at any
// parallelism. Neither pass unfolds its input: unpadded they hold no
// scratch, and padded each chunk holds one line buffer of KH zero-bordered
// input rows (3·34·16 elements here). The chunk count is capped at four per
// worker, so the forward pass stays under a quarter of the full im2col
// materialization, and the filter-gradient pass under one backward-input
// panel.
func TestConvScratchPeakCapped(t *testing.T) {
	defer SetConvPanelRows(0)
	defer SetKernelParallelism(0)
	rng := rand.New(rand.NewSource(9))
	in := RandNormal(rng, 0, 1, 8, 32, 32, 16)
	f := RandNormal(rng, 0, 1, 3, 3, 16, 16)
	p := ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	rows := 8 * 32 * 32
	full := int64(rows * 3 * 3 * 16)
	for _, par := range []int{1, 4, 16} {
		SetConvPanelRows(0)
		SetKernelParallelism(par)
		ResetConvScratchStats()
		Conv2D(in, f, p)
		if peak := ConvScratchPeak(); peak > full/4 {
			t.Fatalf("par=%d: conv scratch peak %d exceeds quarter of full im2col %d", par, peak, full)
		}
		gy := RandNormal(rng, 0, 1, 8, 32, 32, 16)
		ResetConvScratchStats()
		conv2DBackwardFilter(in, gy, f.Shape(), p)
		if peak, panel := ConvScratchPeak(), int64(convPanelFor(rows, 1)*3*3*16); peak > panel {
			t.Fatalf("par=%d: backward-filter scratch peak %d exceeds one panel of %d", par, peak, panel)
		}
	}
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := RandNormal(rng, 0, 1, 1, 4, 4, 2)
	p := ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	cols := Im2Col(in, 3, 3, p)
	y := RandNormal(rng, 0, 1, cols.Shape()...)
	back := Col2Im(y, 1, 4, 4, 2, 3, 3, p)
	lhs := Dot(cols.Flatten(), y.Flatten())
	rhs := Dot(in.Flatten(), back.Flatten())
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint mismatch %g vs %g", lhs, rhs)
	}
}
