package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// Tests for the boundary between matMulRows, the assembly micro-kernel and
// the Go tile. The race detector does not see writes made in assembly, so
// TestMatMulRowRangesAreDisjoint checks by value that each row range wrote
// its own rows and nothing else.

const sentinel = 0x7ff8dead0000beef // a NaN no arithmetic here produces

// machineNaN is the NaN this machine's arithmetic generates (Inf-Inf, 0*Inf).
// The tests inject no other: when an add meets two NaNs with different
// payloads, which one it keeps depends on operand order, which neither IEEE
// 754 nor the Go compiler fixes — MatMulNaive and the Go tile differ there
// already — so bit-equality is only defined while every NaN in play has one
// bit pattern.
var (
	inf        = math.Inf(1) // a variable, so the subtraction runs on the FPU
	machineNaN = inf - inf
)

// specials are the operands whose handling differs between a careless vector
// kernel and IEEE scalar code.
var specials = []float64{
	machineNaN, inf, -inf, math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -0x1p-1060, math.MaxFloat64, -math.MaxFloat64,
}

// fillOperand fills d with values spread over many binades and, at rate
// special, entries of specials.
func fillOperand(rng *rand.Rand, d []float64, special float64) {
	for i := range d {
		if rng.Float64() < special {
			d[i] = specials[rng.Intn(len(specials))]
		} else {
			d[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
}

// guarded returns a slice of n elements at an odd element offset inside a
// larger buffer (so nothing is 16- or 32-byte aligned) with sentinels in
// front and behind, and a function that reports whether they survived.
func guarded(n int) ([]float64, func() bool) {
	const pad = 9
	buf := make([]float64, n+2*pad)
	for i := range buf {
		buf[i] = math.Float64frombits(sentinel)
	}
	intact := func() bool {
		for i := 0; i < pad; i++ {
			if math.Float64bits(buf[i]) != sentinel || math.Float64bits(buf[pad+n+i]) != sentinel {
				return false
			}
		}
		return true
	}
	return buf[pad : pad+n : pad+n], intact
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestMatMulAsmMatchesGoTile compares matMulRows as it runs on this machine
// (assembly for the columns up to the last multiple of 4, Go tile for the
// rest) with the Go tile alone, and the assembly alone with the Go tile on
// the columns it is given, bit for bit, across every column count that mixes
// 8-wide blocks, a 4-wide block and a tail, k around the tile and panel
// sizes, and row counts around the 4-row tile. Each product runs twice: with
// A row-major, and with A read in place through its transpose (row stride 1,
// k-step stride m) as MatMulTransA and the backward-filter conv read it.
func TestMatMulAsmMatchesGoTile(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: matMulRows is the Go tile")
	}
	rng := rand.New(rand.NewSource(21))
	for _, special := range []float64{0, 0.03} {
		for n := 0; n <= 67; n++ {
			for _, k := range []int{1, 3, 4, 5, 256, 257} {
				for _, m := range []int{1, 3, 4, 5, 9} {
					name := fmt.Sprintf("[%d,%d]x[%d,%d] special=%g", m, k, k, n, special)
					a, aOK := guarded(m * k)
					b, bOK := guarded(k * n)
					fillOperand(rng, a, special)
					fillOperand(rng, b, special)
					init := make([]float64, m*n)
					fillOperand(rng, init, special)

					want := append([]float64(nil), init...)
					matMulTile(a, b, want, 0, m, 0, k, 0, n, k, n, 1)

					// The same A, stored transposed: (i, kk) at at[kk*m+i].
					at, atOK := guarded(k * m)
					transposeInto(at, a, m, k)
					intact := func() bool { return aOK() && atOK() && bOK() }
					for _, l := range []struct {
						name   string
						ad     []float64
						rs, ks int
					}{{"row-major A", a, k, 1}, {"transposed A", at, 1, m}} {
						name := name + " " + l.name
						got, gotOK := guarded(m * n)
						if l.ks != 1 {
							copy(got, init)
							matMulTile(l.ad, b, got, 0, m, 0, k, 0, n, l.rs, n, l.ks)
							if i := sameBits(got, want); i >= 0 {
								t.Fatalf("%s: strided Go tile element %d = %x, row-major %x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
							}
						}

						copy(got, init)
						matMulRows(l.ad, b, got, 0, m, k, n, l.rs, l.ks)
						if i := sameBits(got, want); i >= 0 {
							t.Fatalf("%s: matMulRows element %d = %x, Go tile %x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
						if !intact() || !gotOK() {
							t.Fatalf("%s: matMulRows wrote outside its operands", name)
						}

						cols := n &^ 3
						if cols == 0 {
							continue
						}
						// The assembly alone: columns [cols,n) must keep their
						// initial values, columns [0,cols) must match the tile.
						copy(got, init)
						matMulAVX2(&l.ad[0], &b[0], &got[0], m, k, cols, l.rs, n, l.ks)
						for i := 0; i < m; i++ {
							if j := sameBits(got[i*n:i*n+cols], want[i*n:i*n+cols]); j >= 0 {
								t.Fatalf("%s: assembly row %d column %d differs from the Go tile", name, i, j)
							}
							if j := sameBits(got[i*n+cols:(i+1)*n], init[i*n+cols:(i+1)*n]); j >= 0 {
								t.Fatalf("%s: assembly wrote column %d of row %d, past cols=%d", name, cols+j, i, cols)
							}
						}
						if !intact() || !gotOK() {
							t.Fatalf("%s: assembly wrote outside its operands", name)
						}
					}
				}
			}
		}
	}
}

// TestMatMulGoTileMatchesNaive runs the fallback directly, whatever the
// machine: every row, k and column remainder of the 4x4 tiling against the
// naive triple loop.
func TestMatMulGoTileMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, m := range []int{1, 3, 4, 5, 9} {
		for _, k := range []int{1, 3, 4, 5, 9, 257} {
			for _, n := range []int{1, 2, 3, 4, 7, 33} {
				a, b := New(m, k), New(k, n)
				fillOperand(rng, a.data, 0.03)
				fillOperand(rng, b.data, 0.03)
				got := New(m, n)
				matMulTile(a.data, b.data, got.data, 0, m, 0, k, 0, n, k, n, 1)
				if !bitsEq(got, MatMulNaive(a, b)) {
					t.Fatalf("Go tile [%d,%d]x[%d,%d] diverged from naive", m, k, k, n)
				}
			}
		}
	}
}

// benchShapes are the [m,k]x[k,n] products of the regression benchmark's
// workloads: the three conv layers' forward panels, the pixel network's
// first dense layer, a backward-input and a backward-filter panel, and the
// dense workloads' hidden layers.
var benchShapes = [][3]int{
	{64, 64, 16}, {64, 256, 32}, {64, 288, 32}, {32, 1568, 256},
	{64, 32, 288}, {288, 64, 32}, {32, 64, 64}, {64, 64, 64},
}

func TestMatMulBenchShapesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, s := range benchShapes {
		a, b := randTensor(rng, s[0], s[1]), randTensor(rng, s[1], s[2])
		if !bitsEq(MatMul(a, b), MatMulNaive(a, b)) {
			t.Fatalf("MatMul [%d,%d]x[%d,%d] diverged from naive", s[0], s[1], s[1], s[2])
		}
	}
}

// TestMatMulRowRangesAreDisjoint stands in for the race detector on the
// assembly path: a row range writes exactly its own rows of a sentinel-filled
// output and gets them right, and products (plain, transposed-A, and
// transposed-B on both sides of its smaller-side rule) and a convolution with
// both its backward passes, all large enough to fork on their own, agree with
// the naive references while four goroutines run them at once.
func TestMatMulRowRangesAreDisjoint(t *testing.T) {
	old := KernelParallelism()
	SetKernelParallelism(4)
	defer SetKernelParallelism(old)

	rng := rand.New(rand.NewSource(24))
	const k, n = 70, 37
	m := matmulParallelThreshold/(k*n) + 9 // forks in matMulCore
	a, b := randTensor(rng, m, k), randTensor(rng, k, n)
	want := MatMulNaive(a, b)
	if matmulChunks(m, k, n) < 2 {
		t.Fatalf("[%d,%d]x[%d,%d] does not fork", m, k, k, n)
	}
	// aᵀ read in place forks over the same m rows. a x cᵀ transposes the
	// small c; c x aᵀ is computed as its transpose a x cᵀ, which forks over
	// a's rows too.
	at := Transpose(a, 1, 0)
	c := randTensor(rng, n, k)
	wantTA := MatMulTransANaive(at, b)
	wantTB := MatMulTransBNaive(a, c)
	wantBT := MatMulTransBNaive(c, a)

	cuts := []int{0, 1, 5, 8, m / 2, m - 3, m}
	for c := 0; c+1 < len(cuts); c++ {
		i0, i1 := cuts[c], cuts[c+1]
		od := make([]float64, m*n)
		for i := range od {
			od[i] = math.Float64frombits(sentinel)
		}
		clear(od[i0*n : i1*n])
		matMulRows(a.data, b.data, od, i0, i1, k, n, k, 1)
		for i, v := range od {
			in := i >= i0*n && i < i1*n
			if in && math.Float64bits(v) != math.Float64bits(want.data[i]) {
				t.Fatalf("rows [%d,%d): element %d differs from naive", i0, i1, i)
			}
			if !in && math.Float64bits(v) != sentinel {
				t.Fatalf("rows [%d,%d) wrote element %d of row %d", i0, i1, i, i/n)
			}
		}
	}

	in := randTensor(rng, 8, 20, 20, 8)
	f := randTensor(rng, 3, 3, 8, 32)
	p := ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	const rows, ckk = 8 * 20 * 20, 3 * 3 * 8
	if chunks, _ := convForwardChunks(rows, ckk, 32); chunks < 2 {
		t.Fatal("the convolution does not fork")
	}
	if convBackwardInputChunks(8, rows, ckk, 32) < 2 || convBackwardFilterChunks(rows, 3*3, 8, 32) < 2 {
		t.Fatal("a backward pass of the convolution does not fork")
	}
	wantConv := Conv2DNaive(in, f, p)
	gy := randTensor(rng, wantConv.Shape()...)
	wantGI := Conv2DBackwardInputNaive(gy, f, in.Shape(), p)
	wantGF := Conv2DBackwardFilterNaive(in, gy, f.Shape(), p)

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if !bitsEq(MatMul(a, b), want) {
					errs <- "forked MatMul diverged from naive"
					return
				}
				if !bitsEq(MatMulTransA(at, b), wantTA) {
					errs <- "forked MatMulTransA diverged from naive"
					return
				}
				if !bitsEq(MatMulTransB(a, c), wantTB) || !bitsEq(MatMulTransB(c, a), wantBT) {
					errs <- "forked MatMulTransB diverged from naive"
					return
				}
				if !bitsEq(Conv2D(in, f, p), wantConv) {
					errs <- "forked Conv2D diverged from naive"
					return
				}
				if !bitsEq(Conv2DBackwardInput(gy, f, in.Shape(), p), wantGI) {
					errs <- "forked Conv2DBackwardInput diverged from naive"
					return
				}
				if !bitsEq(Conv2DBackwardFilter(in, gy, f.Shape(), p), wantGF) {
					errs <- "forked Conv2DBackwardFilter diverged from naive"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestIm2ColRunAndPixelBranches: on a padded, strided grid the patches of
// one image take both branches of im2colRows — interior patches copy each
// kernel row as one run, border patches go pixel by pixel — and both must be
// the plain gather, over all kernel positions and over position ranges that
// start and end inside a kernel row.
func TestIm2ColRunAndPixelBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, c := range []int{1, 3} {
		const n, h, w, kh, kw = 2, 11, 10, 4, 3
		p := ConvParams{StrideH: 2, StrideW: 2, PadH: 1, PadW: 2}
		oh, ow := p.ConvOutDims(h, w, kh, kw)
		runs, cut := 0, 0
		for ox := 0; ox < ow; ox++ {
			if ix0 := ox*p.StrideW - p.PadW; ix0 >= 0 && ix0+kw <= w {
				runs++
			} else {
				cut++
			}
		}
		if runs == 0 || cut == 0 {
			t.Fatalf("grid has %d whole and %d cut kernel rows; the test needs both", runs, cut)
		}
		in := randTensor(rng, n, h, w, c)
		want := naiveIm2Col(in, kh, kw, p)
		// Stale scratch: padding must be written as zeros, not assumed.
		got := New(n*oh*ow, kh*kw*c)
		for i := range got.data {
			got.data[i] = math.Float64frombits(sentinel)
		}
		im2colRows(got.data, in.data, in.shape, 0, n*oh*ow, kh, kw, 0, kh*kw, p)
		if !tensorsBitEqual(got, want) {
			t.Fatalf("c=%d: im2colRows differs from the plain gather", c)
		}
		for _, r := range [][2]int{{1, 5}, {4, 12}, {11, 12}} {
			k0, k1 := r[0], r[1]
			part := New(n*oh*ow, (k1-k0)*c)
			for i := range part.data {
				part.data[i] = math.Float64frombits(sentinel)
			}
			im2colRows(part.data, in.data, in.shape, 0, n*oh*ow, kh, kw, k0, k1, p)
			if !tensorsBitEqual(part, SliceCols(want, k0*c, k1*c)) {
				t.Fatalf("c=%d: im2colRows of positions [%d,%d) differs from the plain gather", c, k0, k1)
			}
		}
	}
}
