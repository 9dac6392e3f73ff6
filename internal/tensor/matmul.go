package tensor

import "fmt"

// Matrix multiplication kernels.
//
// All three products (MatMul, MatMulTransA, MatMulTransB) lower onto one
// cache-blocked row-panel kernel over a row-major B and an A it reads in
// place through two strides: A's element (i, kk) is at a[i·rs + kk·ks]. A
// plain product passes (rs, ks) = (k, 1); MatMulTransA reads its [k,m]
// operand as the transpose (1, m), and so does the backward-filter conv with
// each im2col panel, so neither copies an operand. B's rows are loaded as
// vectors and cannot be strided: MatMulTransB transposes the smaller side,
// either b or, through outᵀ = b·aᵀ, a and the result. The kernel is blocked
// over k (so a panel of B stays in cache), parallelized by forking chunks of
// output rows onto a goroutine pool (see kernels.go), and inside a panel
// runs one of two inner loops: an AVX2 micro-kernel in assembly, vectorised
// across output columns, or a portable Go tile of 4 output rows x 4 k-steps.
//
// Every output element accumulates its k products in ascending-k order with
// one rounded multiply and one rounded add per product — exactly the sequence
// of the naive i-k-j triple loop — so blocked, tiled, vectorised and parallel
// execution are bit-for-bit identical to MatMulNaive. The seed kernel's
// `if av == 0 { continue }` zero-skip was removed: on dense data it is a
// data-dependent branch per element (measurably slower), and it silently
// converted 0·Inf and 0·NaN into 0 instead of NaN.

// kBlock is the tallest k-panel: 256 k-rows of B at typical n keep the panel
// plus four output rows inside L2.
const kBlock = 256

// kPanel is the k-panel height for a B of n columns: kBlock, cut down for wide
// B so that the lines the micro-kernel touches walking down one column strip
// of the panel, a row of B apart, stay within 32 pages. Past the reach of the
// first-level TLB that walk runs at 9 GFLOP/s (n = 1024) against 22.
func kPanel(n int) int {
	if n <= 16384/kBlock {
		return kBlock
	}
	return max(32, 16384/n&^3)
}

// asmCallMadds bounds the multiply-adds of one call into the micro-kernel
// (~20 µs): the runtime cannot preempt assembly, so a stop-the-world phase of
// the collector waits for the call in flight, 1 ms with a row range per call.
const asmCallMadds = 1 << 18

// matMulDims validates rank-2 operands for an [m,k]x[k,n] product.
func matMulDims(name string, a, b *Tensor, ka, kb int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s wants rank-2 operands, got %v x %v", name, a.shape, b.shape))
	}
	if ka != kb {
		panic(fmt.Sprintf("tensor: %s inner dims differ: %v x %v", name, a.shape, b.shape))
	}
}

// MatMul multiplies two rank-2 tensors: [m,k] x [k,n] -> [m,n].
func MatMul(a, b *Tensor) *Tensor {
	matMulDims("MatMul", a, b, a.shape[1], b.shape[0])
	out := New(a.shape[0], b.shape[1])
	k := a.shape[1]
	matMulCore(a.data, b.data, out.data, a.shape[0], k, b.shape[1], k, 1)
	return out
}

// MatMulInto computes a x b into out, which must be a zero-filled [m,n]
// tensor (as produced by New or Arena.Get). It returns out.
func MatMulInto(out, a, b *Tensor) *Tensor {
	matMulDims("MatMul", a, b, a.shape[1], b.shape[0])
	m, n := a.shape[0], b.shape[1]
	if out.Rank() != 2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto out shape %v, want [%d %d]", out.shape, m, n))
	}
	k := a.shape[1]
	matMulCore(a.data, b.data, out.data, m, k, n, k, 1)
	return out
}

// MatMulTransA computes aᵀ x b for a:[k,m], b:[k,n] -> [m,n] without
// materializing the transpose in the caller.
func MatMulTransA(a, b *Tensor) *Tensor {
	matMulDims("MatMulTransA", a, b, a.shape[0], b.shape[0])
	out := New(a.shape[1], b.shape[1])
	return matMulTransAInto(out, a, b)
}

// MatMulTransAInto computes aᵀ x b into zero-filled out.
func MatMulTransAInto(out, a, b *Tensor) *Tensor {
	matMulDims("MatMulTransA", a, b, a.shape[0], b.shape[0])
	m, n := a.shape[1], b.shape[1]
	if out.Rank() != 2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto out shape %v, want [%d %d]", out.shape, m, n))
	}
	return matMulTransAInto(out, a, b)
}

// matMulTransAInto reads a:[k,m] as aᵀ in place: row i of aᵀ is column i of
// a, one element apart, and its k-steps are rows of a, m elements apart.
func matMulTransAInto(out, a, b *Tensor) *Tensor {
	k, m := a.shape[0], a.shape[1]
	matMulCore(a.data, b.data, out.data, m, k, b.shape[1], 1, m)
	return out
}

// MatMulTransB computes a x bᵀ for a:[m,k], b:[n,k] -> [m,n] without
// materializing the transpose in the caller.
func MatMulTransB(a, b *Tensor) *Tensor {
	matMulDims("MatMulTransB", a, b, a.shape[1], b.shape[1])
	out := New(a.shape[0], b.shape[0])
	return matMulTransBInto(out, a, b)
}

// MatMulTransBInto computes a x bᵀ into zero-filled out.
func MatMulTransBInto(out, a, b *Tensor) *Tensor {
	matMulDims("MatMulTransB", a, b, a.shape[1], b.shape[1])
	m, n := a.shape[0], b.shape[0]
	if out.Rank() != 2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto out shape %v, want [%d %d]", out.shape, m, n))
	}
	return matMulTransBInto(out, a, b)
}

// matMulTransBInto transposes whichever side of a x bᵀ is smaller. When a
// and the [m,n] result hold fewer elements than b, it computes outᵀ = b x aᵀ
// into zeroed scratch and transposes that into out: each output element
// takes the same products in the same k order, with the factors of each
// product swapped, which rounds identically.
func matMulTransBInto(out, a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	if m*k+m*n < n*k {
		at := getScratch(k * m)
		transposeInto(at.data, a.data, m, k)
		ot := getScratch(n * m)
		clear(ot.data)
		matMulCore(b.data, at.data, ot.data, n, k, m, k, 1)
		transposeInto(out.data, ot.data, n, m)
		putScratch(ot)
		putScratch(at)
		return out
	}
	bt := getScratch(k * n)
	transposeInto(bt.data, b.data, n, k)
	matMulCore(a.data, bt.data, out.data, m, k, n, k, 1)
	putScratch(bt)
	return out
}

// transposeInto writes the [rows,cols] matrix src into dst as [cols,rows],
// 32x32-tiled so both sides stream through cache lines.
func transposeInto(dst, src []float64, rows, cols int) {
	const tile = 32
	for i0 := 0; i0 < rows; i0 += tile {
		i1 := i0 + tile
		if i1 > rows {
			i1 = rows
		}
		for j0 := 0; j0 < cols; j0 += tile {
			j1 := j0 + tile
			if j1 > cols {
				j1 = cols
			}
			for i := i0; i < i1; i++ {
				row := src[i*cols : i*cols+cols]
				for j := j0; j < j1; j++ {
					dst[j*rows+i] = row[j]
				}
			}
		}
	}
}

// matMulCore accumulates A([m,k]) x bd([k,n]) into od([m,n]), where A's
// element (i, kk) is ad[i*rs + kk*ks], forking chunks of output rows when the
// product is large enough.
func matMulCore(ad, bd, od []float64, m, k, n, rs, ks int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	chunks := matmulChunks(m, k, n)
	if chunks <= 1 {
		matMulRows(ad, bd, od, 0, m, k, n, rs, ks)
		return
	}
	parallelFor(chunks, func(c int) {
		matMulRows(ad, bd, od, m*c/chunks, m*(c+1)/chunks, k, n, rs, ks)
	})
}

// matMulRows computes output rows [i0,i1) of A x bd, A strided as in
// matMulCore, one k-panel at a time: the assembly micro-kernel (amd64 with
// AVX2, see matmul_amd64.go) takes the columns up to the last multiple of 4
// and the Go tile takes the rest, which is every column where there is no
// assembly.
func matMulRows(ad, bd, od []float64, i0, i1, k, n, rs, ks int) {
	vec := 0
	if useAVX2 {
		vec = n &^ 3
	}
	kc := kPanel(n)
	for kb := 0; kb < k; kb += kc {
		ke := min(kb+kc, k)
		if vec > 0 {
			step := max(4, asmCallMadds/((ke-kb)*vec)&^3)
			for i := i0; i < i1; i += step {
				matMulAVX2(&ad[i*rs+kb*ks], &bd[kb*n], &od[i*n], min(step, i1-i), ke-kb, vec, rs, n, ks)
			}
		}
		if vec < n {
			matMulTile(ad, bd, od, i0, i1, kb, ke, vec, n, rs, n, ks)
		}
	}
}

// matMulTile accumulates rows [i0,i1) x columns [j0,j1) of A x bd over the
// k-steps [kb,ke) in portable Go, A's element (i, kk) at ad[i*rs + kk*ks] and
// the rows of bd and od n apart. It is register-tiled 4 output rows x 4
// k-steps: 16 multiply-adds per 4 B-loads, the adds of each output element
// ordered by k. Rows and k-steps that do not fill a tile go through
// matMulAxpy afterwards.
func matMulTile(ad, bd, od []float64, i0, i1, kb, ke, j0, j1, rs, n, ks int) {
	k4 := kb + (ke-kb)&^3
	i := i0
	for ; i+4 <= i1; i += 4 {
		o0 := od[(i+0)*n+j0 : (i+0)*n+j1]
		o1 := od[(i+1)*n+j0 : (i+1)*n+j1]
		o2 := od[(i+2)*n+j0 : (i+2)*n+j1]
		o3 := od[(i+3)*n+j0 : (i+3)*n+j1]
		for kk := kb; kk < k4; kk += 4 {
			b0 := bd[(kk+0)*n+j0 : (kk+0)*n+j1]
			b1 := bd[(kk+1)*n+j0 : (kk+1)*n+j1]
			b2 := bd[(kk+2)*n+j0 : (kk+2)*n+j1]
			b3 := bd[(kk+3)*n+j0 : (kk+3)*n+j1]
			p := i*rs + kk*ks
			a00, a01, a02, a03 := ad[p], ad[p+ks], ad[p+2*ks], ad[p+3*ks]
			p += rs
			a10, a11, a12, a13 := ad[p], ad[p+ks], ad[p+2*ks], ad[p+3*ks]
			p += rs
			a20, a21, a22, a23 := ad[p], ad[p+ks], ad[p+2*ks], ad[p+3*ks]
			p += rs
			a30, a31, a32, a33 := ad[p], ad[p+ks], ad[p+2*ks], ad[p+3*ks]
			for j := range o0 {
				bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
				s := o0[j]
				s += a00 * bv0
				s += a01 * bv1
				s += a02 * bv2
				s += a03 * bv3
				o0[j] = s
				s = o1[j]
				s += a10 * bv0
				s += a11 * bv1
				s += a12 * bv2
				s += a13 * bv3
				o1[j] = s
				s = o2[j]
				s += a20 * bv0
				s += a21 * bv1
				s += a22 * bv2
				s += a23 * bv3
				o2[j] = s
				s = o3[j]
				s += a30 * bv0
				s += a31 * bv1
				s += a32 * bv2
				s += a33 * bv3
				o3[j] = s
			}
		}
	}
	matMulAxpy(ad, bd, od, i0, i, k4, ke, j0, j1, rs, n, ks)
	matMulAxpy(ad, bd, od, i, i1, kb, ke, j0, j1, rs, n, ks)
}

// matMulAxpy is the untiled form of matMulTile: one multiply-add per output
// load and store, for the remainders of the tiling.
func matMulAxpy(ad, bd, od []float64, i0, i1, kb, ke, j0, j1, rs, n, ks int) {
	for i := i0; i < i1; i++ {
		o := od[i*n+j0 : i*n+j1]
		for kk := kb; kk < ke; kk++ {
			av := ad[i*rs+kk*ks]
			b := bd[kk*n+j0 : kk*n+j1]
			for j := range o {
				o[j] += av * b[j]
			}
		}
	}
}

// MatMulNaive is the straightforward i-k-j triple loop: the arithmetic
// reference the blocked kernels are tested bit-for-bit against.
func MatMulNaive(a, b *Tensor) *Tensor {
	matMulDims("MatMul", a, b, a.shape[1], b.shape[0])
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	ad, bd, od := a.data, b.data, out.data
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			brow := bd[kk*n : (kk+1)*n]
			for j := range brow {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// MatMulTransANaive is the k-outer saxpy reference for aᵀ x b.
func MatMulTransANaive(a, b *Tensor) *Tensor {
	matMulDims("MatMulTransA", a, b, a.shape[0], b.shape[0])
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	ad, bd, od := a.data, b.data, out.data
	for kk := 0; kk < k; kk++ {
		arow := ad[kk*m : (kk+1)*m]
		brow := bd[kk*n : (kk+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			orow := od[i*n : (i+1)*n]
			for j := range brow {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// MatMulTransBNaive is the dot-product reference for a x bᵀ.
func MatMulTransBNaive(a, b *Tensor) *Tensor {
	matMulDims("MatMulTransB", a, b, a.shape[1], b.shape[1])
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	out := New(m, n)
	ad, bd, od := a.data, b.data, out.data
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			sum := 0.0
			for kk := range arow {
				sum += arow[kk] * brow[kk]
			}
			od[i*n+j] = sum
		}
	}
	return out
}

// MatVec multiplies a rank-2 tensor [m,k] with a rank-1 vector [k] -> [m].
func MatVec(a, v *Tensor) *Tensor {
	if a.Rank() != 2 || v.Rank() != 1 || a.shape[1] != v.shape[0] {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch %v x %v", a.shape, v.shape))
	}
	m, k := a.shape[0], a.shape[1]
	out := New(m)
	for i := 0; i < m; i++ {
		row := a.data[i*k : (i+1)*k]
		sum := 0.0
		for j := range row {
			sum += row[j] * v.data[j]
		}
		out.data[i] = sum
	}
	return out
}

// Dot returns the inner product of two rank-1 tensors of equal length.
func Dot(a, b *Tensor) float64 {
	if a.Rank() != 1 || b.Rank() != 1 || a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: Dot shape mismatch %v . %v", a.shape, b.shape))
	}
	sum := 0.0
	for i := range a.data {
		sum += a.data[i] * b.data[i]
	}
	return sum
}
