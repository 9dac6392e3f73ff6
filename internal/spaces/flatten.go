package spaces

import (
	"fmt"
	"math/rand"

	"rlgraph/internal/tensor"
)

// Value is a (possibly nested) space element: either a tensor leaf or a
// dict of values. Exactly one field is set.
type Value struct {
	Leaf *tensor.Tensor
	Dict map[string]*Value
}

// LeafValue wraps a tensor as a Value.
func LeafValue(t *tensor.Tensor) *Value { return &Value{Leaf: t} }

// Get returns the sub-value for a dict key, panicking when absent.
func (v *Value) Get(key string) *Value {
	s, ok := v.Dict[key]
	if !ok {
		panic(fmt.Sprintf("spaces: value has no key %q", key))
	}
	return s
}

// LeafPath names one primitive leaf within a container space, e.g.
// "discrete" for Dict{discrete, cont} or "obs/pos" for nested dicts.
type LeafPath struct {
	Path  string
	Space Space
}

// Flatten returns the ordered primitive leaves of a space. A primitive space
// flattens to a single leaf with an empty path. Dict keys flatten in sorted
// order. This ordering is the contract behind
// RLgraph's ContainerSplitter/Merger components.
func Flatten(s Space) []LeafPath {
	var out []LeafPath
	var walk func(prefix string, s Space)
	walk = func(prefix string, s Space) {
		switch sp := s.(type) {
		case *Dict:
			for _, k := range sp.Keys() {
				walk(join(prefix, k), sp.Sub(k))
			}
		default:
			out = append(out, LeafPath{Path: prefix, Space: s})
		}
	}
	walk("", s)
	return out
}

func join(prefix, key string) string {
	if prefix == "" {
		return key
	}
	return prefix + "/" + key
}

// FlattenValue returns v's tensor leaves in the same order Flatten(s) lists
// the space's leaves.
func FlattenValue(s Space, v *Value) []*tensor.Tensor {
	var out []*tensor.Tensor
	var walk func(s Space, v *Value)
	walk = func(s Space, v *Value) {
		switch sp := s.(type) {
		case *Dict:
			for _, k := range sp.Keys() {
				walk(sp.Sub(k), v.Get(k))
			}
		default:
			if v.Leaf == nil {
				panic("spaces: FlattenValue hit a non-leaf value at a primitive space")
			}
			out = append(out, v.Leaf)
		}
	}
	walk(s, v)
	return out
}

// UnflattenValue rebuilds a Value tree for space s from leaves listed in
// Flatten order. It is the inverse of FlattenValue.
func UnflattenValue(s Space, leaves []*tensor.Tensor) *Value {
	i := 0
	var walk func(s Space) *Value
	walk = func(s Space) *Value {
		switch sp := s.(type) {
		case *Dict:
			m := make(map[string]*Value, len(sp.Keys()))
			for _, k := range sp.Keys() {
				m[k] = walk(sp.Sub(k))
			}
			return &Value{Dict: m}
		default:
			if i >= len(leaves) {
				panic("spaces: UnflattenValue ran out of leaves")
			}
			v := LeafValue(leaves[i])
			i++
			return v
		}
	}
	out := walk(s)
	if i != len(leaves) {
		panic(fmt.Sprintf("spaces: UnflattenValue consumed %d of %d leaves", i, len(leaves)))
	}
	return out
}

// SampleContainer samples a full Value tree for any space (container or
// primitive).
func SampleContainer(s Space, rng *rand.Rand, batch int) *Value {
	leaves := Flatten(s)
	ts := make([]*tensor.Tensor, len(leaves))
	for i, l := range leaves {
		ts[i] = l.Space.Sample(rng, batch)
	}
	return UnflattenValue(s, ts)
}

// ContainsValue reports whether v is a valid element of s, recursing through
// containers.
func ContainsValue(s Space, v *Value) bool {
	switch sp := s.(type) {
	case *Dict:
		if v.Dict == nil || len(v.Dict) != len(sp.Keys()) {
			return false
		}
		for _, k := range sp.Keys() {
			sub, ok := v.Dict[k]
			if !ok || !ContainsValue(sp.Sub(k), sub) {
				return false
			}
		}
		return true
	default:
		return v.Leaf != nil && s.Contains(v.Leaf)
	}
}
