// Package tensor implements the dense numerical kernels shared by the
// static-graph and define-by-run backends. It plays the role NumPy/BLAS/cuDNN
// play underneath TensorFlow and PyTorch in the original RLgraph: both
// backends call into the same kernels, so performance differences between
// them are attributable to graph mechanics rather than math.
//
// Tensors are row-major, contiguous, float64-valued and immutable by
// convention: kernels allocate fresh outputs unless their name says otherwise
// (e.g. AddInPlace). Shapes are plain []int; a zero-rank tensor holds one
// scalar element.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major, contiguous array of float64 values.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := NumElems(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	if len(data) != NumElems(shape) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elems)",
			len(data), shape, NumElems(shape)))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Scalar returns a rank-0 tensor holding v.
func Scalar(v float64) *Tensor {
	return &Tensor{shape: []int{}, data: []float64{v}}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Arange returns a rank-1 tensor [start, start+1, ..., stop).
func Arange(start, stop int) *Tensor {
	if stop < start {
		panic("tensor: Arange stop < start")
	}
	d := make([]float64, stop-start)
	for i := range d {
		d[i] = float64(start + i)
	}
	return FromSlice(d, len(d))
}

// NumElems returns the number of elements implied by shape.
func NumElems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float64, len(t.data))
	copy(d, t.data)
	return &Tensor{shape: append([]int(nil), t.shape...), data: d}
}

// CopyFrom copies src's data into t. Shapes must have equal element counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if t.Size() != src.Size() {
		panic(fmt.Sprintf("tensor: CopyFrom mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// Item returns the single element of a one-element tensor.
func (t *Tensor) Item() float64 {
	if t.Size() != 1 {
		panic(fmt.Sprintf("tensor: Item on tensor with %d elements", t.Size()))
	}
	return t.data[0]
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Equal reports whether t and o have the same shape and identical elements.
func (t *Tensor) Equal(o *Tensor) bool {
	if !SameShape(t.shape, o.shape) {
		return false
	}
	for i := range t.data {
		if t.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether t and o have the same shape and elements within
// absolute tolerance tol.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if !SameShape(t.shape, o.shape) {
		return false
	}
	for i := range t.data {
		if math.Abs(t.data[i]-o.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a compact description, eliding large tensors.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g ... %g]", t.data[0], t.data[1], t.data[len(t.data)-1])
	}
	return b.String()
}

// Reshape returns a view-copy of t with a new shape of equal element count.
// A single -1 dimension is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	out := append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range out {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with multiple -1 dims")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || t.Size()%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dim for reshape %v from %v", shape, t.shape))
		}
		out[infer] = t.Size() / known
	}
	if NumElems(out) != t.Size() {
		panic(fmt.Sprintf("tensor: reshape %v incompatible with %v", shape, t.shape))
	}
	return &Tensor{shape: out, data: t.data}
}
