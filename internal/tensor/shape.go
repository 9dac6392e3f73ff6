package tensor

import "fmt"

// Concat concatenates tensors along the given axis. All inputs must agree on
// every other dimension.
func Concat(axis int, ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat of zero tensors")
	}
	r := ts[0].Rank()
	if axis < 0 {
		axis += r
	}
	outShape := append([]int(nil), ts[0].shape...)
	outShape[axis] = 0
	for _, t := range ts {
		if t.Rank() != r {
			panic("tensor: Concat rank mismatch")
		}
		for d := 0; d < r; d++ {
			if d != axis && t.shape[d] != ts[0].shape[d] {
				panic(fmt.Sprintf("tensor: Concat shape mismatch %v vs %v on axis %d",
					t.shape, ts[0].shape, d))
			}
		}
		outShape[axis] += t.shape[axis]
	}
	out := New(outShape...)
	// outer = product of dims before axis; inner = product after.
	outer, inner := 1, 1
	for d := 0; d < axis; d++ {
		outer *= outShape[d]
	}
	for d := axis + 1; d < r; d++ {
		inner *= outShape[d]
	}
	rowLen := outShape[axis] * inner
	off := 0
	for _, t := range ts {
		tRow := t.shape[axis] * inner
		for o := 0; o < outer; o++ {
			copy(out.data[o*rowLen+off:o*rowLen+off+tRow], t.data[o*tRow:(o+1)*tRow])
		}
		off += tRow
	}
	return out
}

// Split divides t along axis into len(sizes) tensors whose axis dims are the
// given sizes (they must sum to t's axis dim).
func Split(t *Tensor, axis int, sizes ...int) []*Tensor {
	r := t.Rank()
	if axis < 0 {
		axis += r
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != t.shape[axis] {
		panic(fmt.Sprintf("tensor: Split sizes %v do not sum to dim %d of %v", sizes, axis, t.shape))
	}
	outer, inner := 1, 1
	for d := 0; d < axis; d++ {
		outer *= t.shape[d]
	}
	for d := axis + 1; d < r; d++ {
		inner *= t.shape[d]
	}
	rowLen := t.shape[axis] * inner
	outs := make([]*Tensor, len(sizes))
	off := 0
	for i, s := range sizes {
		shape := append([]int(nil), t.shape...)
		shape[axis] = s
		o := New(shape...)
		seg := s * inner
		for ou := 0; ou < outer; ou++ {
			copy(o.data[ou*seg:(ou+1)*seg], t.data[ou*rowLen+off:ou*rowLen+off+seg])
		}
		outs[i] = o
		off += s * inner
	}
	return outs
}

// Stack stacks equal-shaped tensors along a new leading axis.
func Stack(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Stack of zero tensors")
	}
	shape := append([]int{len(ts)}, ts[0].shape...)
	out := New(shape...)
	n := ts[0].Size()
	for i, t := range ts {
		if !SameShape(t.shape, ts[0].shape) {
			panic("tensor: Stack shape mismatch")
		}
		copy(out.data[i*n:(i+1)*n], t.data)
	}
	return out
}

// SliceRows returns rows [lo,hi) along the leading axis.
func SliceRows(t *Tensor, lo, hi int) *Tensor {
	if t.Rank() == 0 || lo < 0 || hi > t.shape[0] || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) invalid for %v", lo, hi, t.shape))
	}
	rest := t.shape[1:]
	size := NumElems(rest)
	shape := append([]int{hi - lo}, rest...)
	d := make([]float64, (hi-lo)*size)
	copy(d, t.data[lo*size:hi*size])
	return FromSlice(d, shape...)
}

// Row returns row i of the leading axis as a tensor of the remaining shape.
func Row(t *Tensor, i int) *Tensor {
	return SliceRows(t, i, i+1).Reshape(t.shape[1:]...)
}

// ExpandDims inserts a size-1 dimension at axis.
func ExpandDims(t *Tensor, axis int) *Tensor {
	r := t.Rank()
	if axis < 0 {
		axis += r + 1
	}
	shape := make([]int, 0, r+1)
	shape = append(shape, t.shape[:axis]...)
	shape = append(shape, 1)
	shape = append(shape, t.shape[axis:]...)
	return t.Reshape(shape...)
}

// SliceCols returns columns [lo, hi) of the last axis.
func SliceCols(t *Tensor, lo, hi int) *Tensor {
	r := t.Rank()
	if r == 0 {
		panic("tensor: SliceCols on scalar")
	}
	n := t.shape[r-1]
	if lo < 0 || hi > n || lo > hi {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) invalid for %v", lo, hi, t.shape))
	}
	rows := t.Size() / n
	w := hi - lo
	out := make([]float64, rows*w)
	for i := 0; i < rows; i++ {
		copy(out[i*w:(i+1)*w], t.data[i*n+lo:i*n+hi])
	}
	shape := append([]int(nil), t.shape[:r-1]...)
	shape = append(shape, w)
	return FromSlice(out, shape...)
}

// PadCols scatters src into columns [lo, lo+srcWidth) of a zero tensor with
// `total` columns (the adjoint of SliceCols).
func PadCols(src *Tensor, lo, total int) *Tensor {
	r := src.Rank()
	w := src.shape[r-1]
	rows := src.Size() / w
	out := make([]float64, rows*total)
	for i := 0; i < rows; i++ {
		copy(out[i*total+lo:i*total+lo+w], src.data[i*w:(i+1)*w])
	}
	shape := append([]int(nil), src.shape[:r-1]...)
	shape = append(shape, total)
	return FromSlice(out, shape...)
}

// ShardRows returns shard i of k along the leading axis: rows
// [floor(i·n/k), floor((i+1)·n/k)).
func ShardRows(t *Tensor, i, k int) *Tensor {
	n := t.shape[0]
	lo, hi := i*n/k, (i+1)*n/k
	return SliceRows(t, lo, hi)
}

// PadRowsShard scatters a shard's gradient back into a zero tensor with
// `total` rows (the adjoint of ShardRows).
func PadRowsShard(src *Tensor, i, k, total int) *Tensor {
	lo := i * total / k
	rest := src.shape[1:]
	size := NumElems(rest)
	shape := append([]int{total}, rest...)
	out := New(shape...)
	copy(out.data[lo*size:lo*size+src.Size()], src.data)
	return out
}
