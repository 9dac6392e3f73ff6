// Package vars defines the Variable type shared by the static-graph and
// define-by-run backends. In the original RLgraph, TensorFlow variables and
// PyTorch tensors play this role; unifying them behind one Go type is what
// lets a single component implementation (and a single weight-sync path)
// serve both backends.
package vars

import (
	"fmt"
	"sort"

	"rlgraph/internal/tensor"
)

// Variable is a named, mutable tensor owned by a component. Values are read
// by VarRead graph nodes (static backend) or directly (define-by-run).
// Variables are not internally synchronized: each agent executes its graph
// from a single goroutine, and cross-agent weight transfer copies values.
//
// Val is written in two ways. Set, SetOwned and Store.SetWeights install a
// new tensor, so anything holding the old pointer keeps a detached value.
// Gradient application (ApplyUpdate) mutates Val's storage in
// place: a VarRead result aliases Val, so it is only valid until the next
// in-place write. Snapshots that outlive a run (Store.Weights, target sync)
// clone.
type Variable struct {
	Name      string
	Val       *tensor.Tensor
	Trainable bool
	Device    string
}

// New returns a trainable variable initialized to init.
func New(name string, init *tensor.Tensor) *Variable {
	return &Variable{Name: name, Val: init, Trainable: true}
}

// NewNonTrainable returns a non-trainable variable (e.g. counters, buffers).
func NewNonTrainable(name string, init *tensor.Tensor) *Variable {
	return &Variable{Name: name, Val: init, Trainable: false}
}

// Set replaces the variable's value with a copy of t.
func (v *Variable) Set(t *tensor.Tensor) {
	if v.Val != nil && !tensor.SameShape(v.Val.Shape(), t.Shape()) {
		panic(fmt.Sprintf("vars: assigning shape %v to variable %q of shape %v",
			t.Shape(), v.Name, v.Val.Shape()))
	}
	v.Val = t.Clone()
}

// SetOwned installs t as the variable's value without copying, transferring
// ownership to the variable. The caller must guarantee t is freshly computed
// and not aliased by any other variable or by caller-held mutable state —
// after the call, t belongs to the variable and may be mutated in place by
// gradient application. Readers of the previous value keep their (now
// detached) tensor. Used by the static backend's assign lowering when
// the assigned value comes from a value-semantics producer; everything else
// should use Set.
func (v *Variable) SetOwned(t *tensor.Tensor) {
	if v.Val != nil && !tensor.SameShape(v.Val.Shape(), t.Shape()) {
		panic(fmt.Sprintf("vars: assigning shape %v to variable %q of shape %v",
			t.Shape(), v.Name, v.Val.Shape()))
	}
	v.Val = t
}

// Store is an ordered collection of variables, keyed by name. It backs
// get_weights/set_weights/import_model/export_model on the agent API.
type Store struct {
	byName map[string]*Variable
	order  []string
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byName: make(map[string]*Variable)}
}

// Add registers v, which must have a unique name.
func (s *Store) Add(v *Variable) {
	if _, dup := s.byName[v.Name]; dup {
		panic(fmt.Sprintf("vars: duplicate variable %q", v.Name))
	}
	s.byName[v.Name] = v
	s.order = append(s.order, v.Name)
}

// Get returns the variable with the given name, or nil.
func (s *Store) Get(name string) *Variable { return s.byName[name] }

// All returns all variables in registration order.
func (s *Store) All() []*Variable {
	out := make([]*Variable, len(s.order))
	for i, n := range s.order {
		out[i] = s.byName[n]
	}
	return out
}

// Trainable returns trainable variables in registration order.
func (s *Store) Trainable() []*Variable {
	var out []*Variable
	for _, n := range s.order {
		if v := s.byName[n]; v.Trainable {
			out = append(out, v)
		}
	}
	return out
}

// Len returns the number of variables.
func (s *Store) Len() int { return len(s.order) }

// Weights returns a name→value snapshot (deep copies) in sorted-name order
// for deterministic serialization.
func (s *Store) Weights() map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor, len(s.order))
	for _, n := range s.order {
		out[n] = s.byName[n].Val.Clone()
	}
	return out
}

// SetWeights assigns values by name. Unknown names are an error; missing
// names are left untouched.
func (s *Store) SetWeights(w map[string]*tensor.Tensor) error {
	names := make([]string, 0, len(w))
	for n := range w {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := s.byName[n]
		if v == nil {
			return fmt.Errorf("vars: no variable named %q", n)
		}
		if !tensor.SameShape(v.Val.Shape(), w[n].Shape()) {
			return fmt.Errorf("vars: shape mismatch for %q: %v vs %v",
				n, v.Val.Shape(), w[n].Shape())
		}
		v.Val = w[n].Clone()
	}
	return nil
}
