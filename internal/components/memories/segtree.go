package memories

import "math"

// SegmentTree is an array-backed binary segment tree over a fixed number of
// slots, supporting point updates and range reductions in O(log n). It backs
// prioritized replay's proportional sampling (sum tree) and importance
// weights (min tree) — the paper's example sub-component (Fig. 2).
type SegmentTree struct {
	size   int // number of leaves (power of two ≥ requested capacity)
	values []float64
	op     func(a, b float64) float64
	ident  float64
}

// NewSumTree returns a segment tree reducing with addition.
func NewSumTree(capacity int) *SegmentTree {
	return newSegmentTree(capacity, func(a, b float64) float64 { return a + b }, 0)
}

// NewMinTree returns a segment tree reducing with minimum.
func NewMinTree(capacity int) *SegmentTree {
	return newSegmentTree(capacity, math.Min, math.Inf(1))
}

func newSegmentTree(capacity int, op func(a, b float64) float64, ident float64) *SegmentTree {
	size := 1
	for size < capacity {
		size *= 2
	}
	st := &SegmentTree{size: size, values: make([]float64, 2*size), op: op, ident: ident}
	for i := range st.values {
		st.values[i] = ident
	}
	return st
}

// Set writes v at leaf i and updates ancestors.
func (st *SegmentTree) Set(i int, v float64) {
	idx := i + st.size
	st.values[idx] = v
	for idx > 1 {
		idx /= 2
		st.values[idx] = st.op(st.values[2*idx], st.values[2*idx+1])
	}
}

// Get returns the value at leaf i.
func (st *SegmentTree) Get(i int) float64 { return st.values[i+st.size] }

// Reduce returns the reduction over all leaves.
func (st *SegmentTree) Reduce() float64 { return st.values[1] }

// FindPrefixSum returns the smallest leaf index i such that the sum of
// leaves [0, i] is >= p. Only valid for sum trees with non-negative leaves.
func (st *SegmentTree) FindPrefixSum(p float64) int {
	idx := 1
	for idx < st.size {
		left := 2 * idx
		if st.values[left] >= p {
			idx = left
		} else {
			p -= st.values[left]
			idx = left + 1
		}
	}
	return idx - st.size
}
