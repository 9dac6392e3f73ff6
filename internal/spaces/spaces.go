// Package spaces implements RLgraph's generalized space objects (paper §1,
// §3.2). A Space describes the type and shape of data flowing through the
// component graph independently of any backend: agents declare input spaces
// for their root component, and the graph builder uses them to infer shapes,
// create variables, and generate placeholders.
//
// Primitive spaces are boxes (FloatBox, IntBox, BoolBox) with an element
// shape plus an optional batch rank. Dict container spaces nest arbitrarily
// and flatten to an ordered list of primitive leaves — the mechanism behind
// RLgraph's auto split/merge utilities.
package spaces

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"rlgraph/internal/tensor"
)

// Space describes the type and shape of values exchanged between components.
type Space interface {
	// Shape returns the element shape excluding the batch rank.
	Shape() []int
	// HasBatchRank reports whether values carry a leading batch dimension.
	HasBatchRank() bool
	// WithBatchRank returns a copy of the space with a batch rank added.
	WithBatchRank() Space
	// Sample draws one random element (with the given batch size if the
	// space has a batch rank; pass 1 for unbatched use).
	Sample(rng *rand.Rand, batch int) *tensor.Tensor
	// Zeros returns a zero element with the given batch size.
	Zeros(batch int) *tensor.Tensor
	// Contains reports whether t is a valid (possibly batched) value.
	Contains(t *tensor.Tensor) bool
	// String renders a human-readable description.
	String() string
}

// ContainsElement reports whether t is a valid single element of a
// primitive space, ignoring the space's declared batch rank — the
// admission-time check for serving APIs that accept one observation per
// request and batch them internally along the wildcard batch dim. Value
// constraints (bounds, integrality) are checked like Contains.
func ContainsElement(sp Space, t *tensor.Tensor) bool {
	if t == nil {
		return false
	}
	if !tensor.SameShape(t.Shape(), sp.Shape()) {
		return false
	}
	if !sp.HasBatchRank() {
		return sp.Contains(t)
	}
	// Reinstate the batch dim as size 1 so Contains sees the declared rank.
	return sp.Contains(t.Reshape(append([]int{1}, t.Shape()...)...))
}

// box holds the fields shared by the primitive spaces.
type box struct {
	shape     []int
	batchRank bool
}

func (b box) Shape() []int       { return b.shape }
func (b box) HasBatchRank() bool { return b.batchRank }

// fullShape prepends the batch dim to the element shape.
func (b box) fullShape(batch int) []int {
	if b.batchRank {
		return append([]int{batch}, b.shape...)
	}
	return append([]int(nil), b.shape...)
}

// leadRanks counts how many leading dims a value carries beyond the element
// shape.
func (b box) leadRanks() int {
	if b.batchRank {
		return 1
	}
	return 0
}

func (b box) containsShape(t *tensor.Tensor) bool {
	want := len(b.shape) + b.leadRanks()
	if t.Rank() != want {
		return false
	}
	got := t.Shape()[b.leadRanks():]
	return tensor.SameShape(got, b.shape)
}

func (b box) rankSuffix() string {
	if b.batchRank {
		return "+B"
	}
	return ""
}

// FloatBox is a continuous space with optional bounds.
type FloatBox struct {
	box
	Low, High float64 // sampling bounds; Low==High==0 means unbounded N(0,1)
}

// NewFloatBox returns an unbounded float space with the given element shape.
func NewFloatBox(shape ...int) *FloatBox {
	return &FloatBox{box: box{shape: append([]int(nil), shape...)}}
}

// NewBoundedFloatBox returns a float space sampled uniformly from [low, high).
func NewBoundedFloatBox(low, high float64, shape ...int) *FloatBox {
	fb := NewFloatBox(shape...)
	fb.Low, fb.High = low, high
	return fb
}

// WithBatchRank returns a copy with a batch rank.
func (f *FloatBox) WithBatchRank() Space {
	c := *f
	c.batchRank = true
	return &c
}

// Sample draws uniform samples within bounds, or N(0,1) if unbounded.
func (f *FloatBox) Sample(rng *rand.Rand, batch int) *tensor.Tensor {
	shape := f.fullShape(batch)
	if f.Low == 0 && f.High == 0 {
		return tensor.RandNormal(rng, 0, 1, shape...)
	}
	return tensor.RandUniform(rng, f.Low, f.High, shape...)
}

// Zeros returns a zero tensor of the batched shape.
func (f *FloatBox) Zeros(batch int) *tensor.Tensor {
	return tensor.New(f.fullShape(batch)...)
}

// Contains checks shape compatibility and bounds (if bounded).
func (f *FloatBox) Contains(t *tensor.Tensor) bool {
	if !f.containsShape(t) {
		return false
	}
	if f.Low == 0 && f.High == 0 {
		return true
	}
	for _, v := range t.Data() {
		if v < f.Low || v > f.High {
			return false
		}
	}
	return true
}

func (f *FloatBox) String() string {
	return fmt.Sprintf("FloatBox%v%s", f.shape, f.rankSuffix())
}

// IntBox is a discrete space with values in [0, N).
type IntBox struct {
	box
	N int // number of categories; 0 means unbounded non-negative ints
}

// NewIntBox returns a scalar discrete space with n categories.
func NewIntBox(n int, shape ...int) *IntBox {
	return &IntBox{box: box{shape: append([]int(nil), shape...)}, N: n}
}

// WithBatchRank returns a copy with a batch rank.
func (i *IntBox) WithBatchRank() Space {
	c := *i
	c.batchRank = true
	return &c
}

// Sample draws uniform category indices.
func (i *IntBox) Sample(rng *rand.Rand, batch int) *tensor.Tensor {
	t := tensor.New(i.fullShape(batch)...)
	n := i.N
	if n <= 0 {
		n = 1 << 30
	}
	d := t.Data()
	for k := range d {
		d[k] = float64(rng.Intn(n))
	}
	return t
}

// Zeros returns a zero tensor of the batched shape.
func (i *IntBox) Zeros(batch int) *tensor.Tensor {
	return tensor.New(i.fullShape(batch)...)
}

// Contains checks shape, integrality and range.
func (i *IntBox) Contains(t *tensor.Tensor) bool {
	if !i.containsShape(t) {
		return false
	}
	for _, v := range t.Data() {
		if v != float64(int(v)) || v < 0 {
			return false
		}
		if i.N > 0 && int(v) >= i.N {
			return false
		}
	}
	return true
}

func (i *IntBox) String() string {
	return fmt.Sprintf("IntBox(%d)%v%s", i.N, i.shape, i.rankSuffix())
}

// BoolBox is a space of 0/1 values (e.g. terminal flags).
type BoolBox struct {
	box
}

// NewBoolBox returns a boolean space with the given element shape.
func NewBoolBox(shape ...int) *BoolBox {
	return &BoolBox{box: box{shape: append([]int(nil), shape...)}}
}

// WithBatchRank returns a copy with a batch rank.
func (b *BoolBox) WithBatchRank() Space {
	c := *b
	c.batchRank = true
	return &c
}

// Sample draws independent fair coin flips.
func (b *BoolBox) Sample(rng *rand.Rand, batch int) *tensor.Tensor {
	t := tensor.New(b.fullShape(batch)...)
	d := t.Data()
	for k := range d {
		if rng.Intn(2) == 1 {
			d[k] = 1
		}
	}
	return t
}

// Zeros returns a zero tensor of the batched shape.
func (b *BoolBox) Zeros(batch int) *tensor.Tensor {
	return tensor.New(b.fullShape(batch)...)
}

// Contains checks shape and 0/1-ness.
func (b *BoolBox) Contains(t *tensor.Tensor) bool {
	if !b.containsShape(t) {
		return false
	}
	for _, v := range t.Data() {
		if v != 0 && v != 1 {
			return false
		}
	}
	return true
}

func (b *BoolBox) String() string {
	return fmt.Sprintf("BoolBox%v%s", b.shape, b.rankSuffix())
}

// Dict is a container space with named sub-spaces (paper Listing 1's action
// space with one discrete and one continuous member). Keys are ordered
// lexicographically for deterministic flattening.
type Dict struct {
	keys []string
	subs map[string]Space
}

// NewDict builds a dict space from key/space pairs.
func NewDict(pairs map[string]Space) *Dict {
	d := &Dict{subs: make(map[string]Space, len(pairs))}
	for k, v := range pairs {
		d.keys = append(d.keys, k)
		d.subs[k] = v
	}
	sort.Strings(d.keys)
	return d
}

// Keys returns the sorted key list.
func (d *Dict) Keys() []string { return d.keys }

// Sub returns the sub-space for key.
func (d *Dict) Sub(key string) Space { return d.subs[key] }

// Shape panics: container spaces have no single shape.
func (d *Dict) Shape() []int { panic("spaces: Dict has no primitive shape") }

// HasBatchRank reports whether all leaves carry a batch rank.
func (d *Dict) HasBatchRank() bool {
	for _, k := range d.keys {
		if !d.subs[k].HasBatchRank() {
			return false
		}
	}
	return len(d.keys) > 0
}

// WithBatchRank applies WithBatchRank to every sub-space.
func (d *Dict) WithBatchRank() Space {
	m := make(map[string]Space, len(d.keys))
	for _, k := range d.keys {
		m[k] = d.subs[k].WithBatchRank()
	}
	return NewDict(m)
}

// Sample panics: use SampleContainer to sample containers.
func (d *Dict) Sample(*rand.Rand, int) *tensor.Tensor {
	panic("spaces: Sample on Dict; use SampleContainer")
}

// Zeros panics: containers hold Value trees, not single tensors.
func (d *Dict) Zeros(int) *tensor.Tensor {
	panic("spaces: Zeros on Dict")
}

// Contains panics: containers hold Value trees, not single tensors.
func (d *Dict) Contains(*tensor.Tensor) bool {
	panic("spaces: Contains on Dict; use ContainsValue")
}

func (d *Dict) String() string {
	parts := make([]string, len(d.keys))
	for i, k := range d.keys {
		parts[i] = fmt.Sprintf("%s:%s", k, d.subs[k])
	}
	return "Dict{" + strings.Join(parts, ", ") + "}"
}
