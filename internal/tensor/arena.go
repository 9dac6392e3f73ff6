package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Arena is a size-bucketed tensor recycler. Get returns a zeroed tensor
// exactly like New; Put hands a tensor back for reuse. Buckets are powers of
// two over the backing array's capacity, so any tensor whose capacity covers
// a requested size can serve it.
//
// Ownership rules (the plan executor's liveness analysis enforces these, see
// DESIGN.md §5.7): Put transfers exclusive ownership of the tensor AND its
// backing array to the arena — the caller must hold no live references,
// views (Reshape shares storage), or slices of it. Get transfers exclusive
// ownership back out. All methods are safe for concurrent use; a nil *Arena
// degrades to plain allocation.
type Arena struct {
	buckets [arenaBuckets]sync.Pool // of *Tensor, data cap >= 1<<bucket
	gets    atomic.Int64
	hits    atomic.Int64
}

const arenaBuckets = 27 // largest bucket: 2^26 elems = 512 MiB of float64

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Get returns a zero-filled tensor of the given shape, recycling a pooled
// buffer when one large enough is available.
func (a *Arena) Get(shape ...int) *Tensor {
	n := NumElems(shape)
	if a == nil || n == 0 {
		return New(shape...)
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n))
	if b >= arenaBuckets {
		return New(shape...)
	}
	a.gets.Add(1)
	if v := a.buckets[b].Get(); v != nil {
		a.hits.Add(1)
		t := v.(*Tensor)
		t.shape = append(t.shape[:0], shape...)
		t.data = t.data[:n]
		clear(t.data)
		return t
	}
	return &Tensor{
		shape: append([]int(nil), shape...),
		data:  make([]float64, n, 1<<b),
	}
}

// Get2 is Get for the common rank-2 case with a fixed-arity signature, so
// hot callers (matmul evals) pay no variadic shape-slice allocation.
func (a *Arena) Get2(d0, d1 int) *Tensor {
	n := d0 * d1
	if a == nil || n == 0 {
		return New(d0, d1)
	}
	b := bits.Len(uint(n - 1))
	if b >= arenaBuckets {
		return New(d0, d1)
	}
	a.gets.Add(1)
	if v := a.buckets[b].Get(); v != nil {
		a.hits.Add(1)
		t := v.(*Tensor)
		t.shape = append(t.shape[:0], d0, d1)
		t.data = t.data[:n]
		clear(t.data)
		return t
	}
	return &Tensor{shape: []int{d0, d1}, data: make([]float64, n, 1<<b)}
}

// Put recycles t. The caller must not use t (or anything sharing its storage)
// afterwards. Tensors whose backing array is too small or too large to bucket
// are dropped.
func (a *Arena) Put(t *Tensor) {
	if a == nil || t == nil {
		return
	}
	c := cap(t.data)
	if c == 0 {
		return
	}
	b := bits.Len(uint(c)) - 1 // floor(log2(c))
	if b >= arenaBuckets {
		return
	}
	t.data = t.data[:1<<b]
	a.buckets[b].Put(t)
}

// Stats reports (gets, hits) counters: how many allocations the arena served
// and how many of those reused a pooled buffer.
func (a *Arena) Stats() (gets, hits int64) {
	return a.gets.Load(), a.hits.Load()
}

// scratchArena recycles kernel-internal scratch: im2col panels, the filter
// transpose of the backward-input conv and MatMulTransB's transposes.
// getScratch skips Get's zero fill: most scratch is fully overwritten before
// use, and a caller that accumulates into it clears it first.
var scratchArena Arena

func getScratch(n int) *Tensor {
	if n == 0 {
		return New(0)
	}
	b := bits.Len(uint(n - 1))
	if b >= arenaBuckets {
		return &Tensor{shape: []int{n}, data: make([]float64, n)}
	}
	scratchArena.gets.Add(1)
	if v := scratchArena.buckets[b].Get(); v != nil {
		scratchArena.hits.Add(1)
		t := v.(*Tensor)
		t.shape = append(t.shape[:0], n)
		t.data = t.data[:n]
		return t
	}
	return &Tensor{shape: []int{n}, data: make([]float64, n, 1<<b)}
}

func putScratch(t *Tensor) { scratchArena.Put(t) }
