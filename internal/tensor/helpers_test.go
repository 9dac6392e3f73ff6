package tensor

import "fmt"

// Test-only helpers: references and fixtures the tests check live kernels
// against, and knobs that steer them. No binary needs them.

// Transpose permutes the tensor's dimensions by perm. An empty perm reverses
// all dimensions (matrix transpose for rank 2).
func Transpose(a *Tensor, perm ...int) *Tensor {
	r := a.Rank()
	if len(perm) == 0 {
		perm = make([]int, r)
		for i := range perm {
			perm[i] = r - 1 - i
		}
	}
	if len(perm) != r {
		panic(fmt.Sprintf("tensor: Transpose perm %v does not match rank %d", perm, r))
	}
	seen := make([]bool, r)
	outShape := make([]int, r)
	for i, p := range perm {
		if p < 0 || p >= r || seen[p] {
			panic(fmt.Sprintf("tensor: invalid perm %v for rank %d", perm, r))
		}
		seen[p] = true
		outShape[i] = a.shape[p]
	}
	out := New(outShape...)
	if out.Size() == 0 {
		return out
	}
	inStrides := Strides(a.shape)
	// Stride of output dim i in the input layout.
	srcStride := make([]int, r)
	for i, p := range perm {
		srcStride[i] = inStrides[p]
	}
	idx := make([]int, r)
	src := 0
	for o := 0; o < out.Size(); o++ {
		out.data[o] = a.data[src]
		for d := r - 1; d >= 0; d-- {
			idx[d]++
			src += srcStride[d]
			if idx[d] < outShape[d] {
				break
			}
			src -= idx[d] * srcStride[d]
			idx[d] = 0
		}
	}
	return out
}

// Unstack splits t along its leading axis into t.Dim(0) tensors.
func Unstack(t *Tensor) []*Tensor {
	if t.Rank() == 0 {
		panic("tensor: Unstack of scalar")
	}
	n := t.shape[0]
	rest := t.shape[1:]
	size := NumElems(rest)
	outs := make([]*Tensor, n)
	for i := 0; i < n; i++ {
		d := make([]float64, size)
		copy(d, t.data[i*size:(i+1)*size])
		outs[i] = FromSlice(d, rest...)
	}
	return outs
}

// Strides returns row-major strides for shape.
func Strides(shape []int) []int {
	s := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= shape[i]
	}
	return s
}

// Flatten returns t reshaped to rank 1.
func (t *Tensor) Flatten() *Tensor { return t.Reshape(t.Size()) }

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

// AxpyInPlace accumulates dst[i] += s*x[i] in one pass — the fusion of
// AddInPlace(dst, Scale(x, s)), the SGD/gradient-accumulation update. The
// product is rounded before the add, exactly like the unfused pair.
func AxpyInPlace(dst *Tensor, s float64, x *Tensor) {
	if !SameShape(dst.shape, x.shape) {
		panic(fmt.Sprintf("tensor: AxpyInPlace shape mismatch %v vs %v", dst.shape, x.shape))
	}
	dd, xd := dst.data, x.data[:len(dst.data)]
	for i := range dd {
		t := s * xd[i]
		dd[i] += t
	}
}

// SetConvPanelRows sets the output-row count of the backward-input conv's
// im2col panels. n <= 0 restores the default (64). Panel size is a pure
// memory/latency knob — results are identical at any setting.
func SetConvPanelRows(n int) {
	if n <= 0 {
		n = defaultConvPanelRows
	}
	convPanelRows.Store(int32(n))
}

// ResetConvScratchStats zeroes the conv scratch high-water mark.
func ResetConvScratchStats() {
	convScratchCur.Store(0)
	convScratchPeak.Store(0)
}

// ConvScratchPeak reports the peak number of float64 scratch elements held
// concurrently by conv panels since the last reset.
func ConvScratchPeak() int64 { return convScratchPeak.Load() }

// Set writes v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

// The allocating forms of the Into kernels, for tests that compare results.

func matMulTransA(a, b *Tensor) *Tensor {
	return MatMulTransAInto(New(a.shape[1], b.shape[1]), a, b)
}

func matMulTransB(a, b *Tensor) *Tensor {
	return MatMulTransBInto(New(a.shape[0], b.shape[0]), a, b)
}

func conv2DBackwardInput(gradOut, filter *Tensor, inputShape []int, p ConvParams) *Tensor {
	return Conv2DBackwardInputInto(New(inputShape...), gradOut, filter, p)
}

func conv2DBackwardFilter(input, gradOut *Tensor, filterShape []int, p ConvParams) *Tensor {
	return Conv2DBackwardFilterInto(New(filterShape...), input, gradOut, p)
}

// sumAll sums every element in storage order.
func sumAll(t *Tensor) float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}
