// Package component implements RLgraph's core abstraction (paper §3.2): the
// Component. Components encapsulate computations in graph functions, expose
// them through registered API methods, nest arbitrarily as sub-components,
// and are assembled into a backend-independent component graph that a
// builder later compiles for a static-graph or define-by-run backend. A
// graph function is written once against package graph: the builder hands
// it a static graph to build into, or an eager one that computes as it goes.
//
// Components may only exchange data along edges of the component graph — an
// edge is a call to a declared API method — which is what gives RLgraph its
// strict interfaces and per-component testability.
package component

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rlgraph/internal/graph"
	"rlgraph/internal/spaces"
	"rlgraph/internal/vars"
)

// Rec is a data op record flowing between API methods. During assembly it
// carries only structure; during a build or a define-by-run call it wraps a
// graph node — of a static graph, or of an eager graph that has already
// computed its value. Space is populated once the producing graph function
// has executed.
type Rec struct {
	// Space describes the record once known (nil during assembly).
	Space spaces.Space
	// Ref is the record's node; nil during assembly.
	Ref *graph.Node
}

// NewRec wraps a node with a space.
func NewRec(ref *graph.Node, sp spaces.Space) *Rec { return &Rec{Ref: ref, Space: sp} }

// Mode is the phase an API traversal executes in.
type Mode int

const (
	// ModeAssemble traverses the component graph without types or shapes
	// (paper phase 2): graph fns are not executed, only recorded.
	ModeAssemble Mode = iota
	// ModeCompile executes graph fns on the build graph to create variables
	// and operations (paper phase 3).
	ModeCompile
	// ModeRun re-executes the traversal with real data (define-by-run only).
	ModeRun
)

// Ctx carries the traversal state of one API invocation.
type Ctx struct {
	// Mode is the current phase.
	Mode Mode
	// G is the graph graph fns build into in ModeCompile/ModeRun (nil while
	// assembling).
	G *graph.Graph
	// Stats collects build statistics (may be nil).
	Stats *Stats
}

// Stats aggregates component-graph metrics during assembly and build.
type Stats struct {
	// APICalls counts component API-method edges traversed.
	APICalls int
	// GraphFnCalls counts graph-function invocations.
	GraphFnCalls int
	// ComponentsSeen is the set of component scopes touched.
	ComponentsSeen map[string]bool
	// GraphFnNanos is wall time spent inside graph-fn bodies during compile.
	// Build *overhead* (Fig. 5a) is total build time minus this: creating
	// variables and operations would happen with or without RLgraph.
	GraphFnNanos int64
}

// NewStats returns empty stats.
func NewStats() *Stats { return &Stats{ComponentsSeen: make(map[string]bool)} }

// APIFunc is the body of an API method: backend-independent dataflow
// composition calling sub-component APIs and graph functions.
type APIFunc func(ctx *Ctx, in []*Rec) []*Rec

// GraphFn is a numerical computation, written once against package graph's
// op constructors: it adds its operations to g, on either backend.
type GraphFn func(g *graph.Graph, in []*graph.Node) []*graph.Node

// VarCreator is implemented by components that own variables. The builder
// calls CreateVariables exactly once, when the component first becomes
// input-complete (all spaces of the triggering graph fn known) — the paper's
// build-time barrier guaranteeing variables exist before any computation
// reads them.
type VarCreator interface {
	CreateVariables(inSpaces []spaces.Space) error
}

// API is a registered API method.
type API struct {
	// Name is the method name unique within its component.
	Name string
	// Fn is the method body.
	Fn APIFunc
	// NoGrad marks inference-only methods: define-by-run executors run them
	// on an eager graph that records nothing for autodiff (the torch.no_grad
	// analogue).
	NoGrad bool
}

// Component is the base type every RLgraph component embeds.
type Component struct {
	name   string
	scope  string
	device string

	parent *Component
	subs   []*Component
	subMap map[string]*Component

	apis     map[string]*API
	apiOrder []string

	variables   *vars.Store
	varsCreated bool
	impl        VarCreator
	varCreators map[string]bool // graph fns whose input spaces define variables
}

// New returns a component with the given name.
func New(name string) *Component {
	return &Component{
		name:      name,
		scope:     name,
		subMap:    make(map[string]*Component),
		apis:      make(map[string]*API),
		variables: vars.NewStore(),
	}
}

// SetImpl attaches the concrete implementation for variable creation. Call
// from the concrete component's constructor.
func (c *Component) SetImpl(impl VarCreator) { c.impl = impl }

// SetVarCreatorFns restricts variable creation to the named graph fns: only
// their input spaces define this component's variables (e.g. a memory's
// buffers are shaped by what flows into insert, never by sample's batch-size
// scalar). Compiling any other graph fn first is then an input-completeness
// violation and fails the build.
func (c *Component) SetVarCreatorFns(names ...string) {
	c.varCreators = make(map[string]bool, len(names))
	for _, n := range names {
		c.varCreators[n] = true
	}
}

// Name returns the component's short name.
func (c *Component) Name() string { return c.name }

// Scope returns the full slash-separated scope path from the root.
func (c *Component) Scope() string { return c.scope }

// Device returns the device this component's ops and variables are assigned
// to ("" inherits the parent's).
func (c *Component) Device() string {
	if c.device == "" && c.parent != nil {
		return c.parent.Device()
	}
	return c.device
}

// SetDevice assigns the component (and, by inheritance, its sub-components)
// to a device.
func (c *Component) SetDevice(d string) { c.device = d }

// AddSub registers sub as a nested sub-component, fixing its scope.
func (c *Component) AddSub(sub *Component) {
	if _, dup := c.subMap[sub.name]; dup {
		panic(fmt.Sprintf("component: duplicate sub-component %q under %q", sub.name, c.scope))
	}
	sub.parent = c
	sub.rescope(c.scope)
	c.subs = append(c.subs, sub)
	c.subMap[sub.name] = sub
}

func (c *Component) rescope(parentScope string) {
	c.scope = parentScope + "/" + c.name
	for _, s := range c.subs {
		s.rescope(c.scope)
	}
}

// Subs returns direct sub-components in registration order.
func (c *Component) Subs() []*Component { return c.subs }

// NumComponents returns the size of the component graph rooted here
// (including this component).
func (c *Component) NumComponents() int {
	n := 1
	for _, s := range c.subs {
		n += s.NumComponents()
	}
	return n
}

// Walk visits this component and all descendants depth-first.
func (c *Component) Walk(fn func(*Component)) {
	fn(c)
	for _, s := range c.subs {
		s.Walk(fn)
	}
}

// DefineAPI registers an API method. Only registered methods are reachable
// from other components; helper functions stay private to the component.
func (c *Component) DefineAPI(name string, fn APIFunc) *API {
	if _, dup := c.apis[name]; dup {
		panic(fmt.Sprintf("component: duplicate API %q on %q", name, c.scope))
	}
	a := &API{Name: name, Fn: fn}
	c.apis[name] = a
	c.apiOrder = append(c.apiOrder, name)
	return a
}

// APINames returns registered API method names in registration order.
func (c *Component) APINames() []string { return c.apiOrder }

// LookupAPI returns the API method or nil.
func (c *Component) LookupAPI(name string) *API { return c.apis[name] }

// Call invokes a declared API method on this component — the only legal
// data edge between components. While building it records the edge in the
// build statistics.
func (c *Component) Call(ctx *Ctx, api string, in ...*Rec) []*Rec {
	a := c.apis[api]
	if a == nil {
		known := strings.Join(c.apiOrder, ", ")
		panic(fmt.Sprintf("component: %q has no API %q (has: %s)", c.scope, api, known))
	}
	if ctx.Stats != nil {
		ctx.Stats.APICalls++
		ctx.Stats.ComponentsSeen[c.scope] = true
	}
	return a.Fn(ctx, in)
}

// GraphFn executes (or records) a graph function belonging to this
// component. nOut declares the function's output arity so the assembly phase
// can traverse the dataflow without executing anything. In ModeCompile it
// enforces the input-completeness barrier: the first graph fn to execute
// triggers CreateVariables with the fn's input spaces before any operation
// of the component is defined.
func (c *Component) GraphFn(ctx *Ctx, name string, nOut int, fn GraphFn, in ...*Rec) []*Rec {
	switch ctx.Mode {
	case ModeAssemble:
		// Phase 2: type- and dimension-less traversal. Graph fns are
		// recorded as meta nodes, not executed; outputs are opaque records.
		if ctx.Stats != nil {
			ctx.Stats.GraphFnCalls++
			ctx.Stats.ComponentsSeen[c.scope] = true
		}
		out := make([]*Rec, nOut)
		for i := range out {
			out[i] = &Rec{}
		}
		return out

	case ModeCompile:
		if ctx.Stats != nil {
			ctx.Stats.GraphFnCalls++
			ctx.Stats.ComponentsSeen[c.scope] = true
		}
		inSpaces := make([]spaces.Space, len(in))
		refs := make([]*graph.Node, len(in))
		for i, r := range in {
			if r.Ref == nil {
				panic(fmt.Sprintf("component: %s/%s input %d has no value — "+
					"input-incomplete call order (build APIs that produce this record first)",
					c.scope, name, i))
			}
			refs[i] = r.Ref
			inSpaces[i] = r.Space
			if inSpaces[i] == nil {
				inSpaces[i] = SpaceFromShape(r.Ref.Shape())
			}
		}
		// Per-component explicit device assignment replaces TF's implicit
		// nested device contexts.
		if d := c.Device(); d != "" {
			prev := ctx.G.DefaultDevice()
			ctx.G.SetDefaultDevice(d)
			defer ctx.G.SetDefaultDevice(prev)
		}
		start := time.Now()
		if !c.varsCreated {
			if c.varCreators != nil && !c.varCreators[name] {
				panic(fmt.Sprintf("component: %s is not input-complete — graph fn %q compiled "+
					"before any variable-creating fn (%v); build the producing API first",
					c.scope, name, ScopesSorted(c.varCreators)))
			}
			if c.impl != nil {
				if err := c.impl.CreateVariables(inSpaces); err != nil {
					panic(fmt.Sprintf("component: %s: CreateVariables: %v", c.scope, err))
				}
			}
			c.varsCreated = true
		}
		outs := fn(ctx.G, refs)
		if ctx.Stats != nil {
			ctx.Stats.GraphFnNanos += time.Since(start).Nanoseconds()
		}
		recs := make([]*Rec, len(outs))
		for i, o := range outs {
			recs[i] = &Rec{Ref: o, Space: SpaceFromShape(o.Shape())}
		}
		return recs

	default: // ModeRun: define-by-run execution with real data.
		refs := make([]*graph.Node, len(in))
		for i, r := range in {
			refs[i] = r.Ref
		}
		outs := fn(ctx.G, refs)
		recs := make([]*Rec, len(outs))
		for i, o := range outs {
			recs[i] = &Rec{Ref: o}
		}
		return recs
	}
}

// AddVariable registers a variable under this component's scope and device.
func (c *Component) AddVariable(v *vars.Variable) *vars.Variable {
	v.Name = c.scope + "/" + v.Name
	v.Device = c.Device()
	c.variables.Add(v)
	return v
}

// AllVariables gathers variables from this component and all descendants
// into one store (registration order, depth-first).
func (c *Component) AllVariables() *vars.Store {
	out := vars.NewStore()
	c.Walk(func(cc *Component) {
		for _, v := range cc.variables.All() {
			out.Add(v)
		}
	})
	return out
}

// TrainableVariables returns all trainable variables under this component.
func (c *Component) TrainableVariables() []*vars.Variable {
	return c.AllVariables().Trainable()
}

// SpaceFromShape derives a FloatBox space from a node shape; a leading -1 dim
// becomes a batch rank. It is the inverse direction of space→placeholder
// used when spaces flow through already-built sub-graphs.
func SpaceFromShape(shape []int) spaces.Space {
	if len(shape) > 0 && shape[0] < 0 {
		return spaces.NewFloatBox(shape[1:]...).WithBatchRank()
	}
	// A concrete leading dim is still treated as batch for rank>0 tensors
	// produced from batched inputs; element shape keeps the remaining dims.
	if len(shape) > 0 {
		return spaces.NewFloatBox(shape[1:]...).WithBatchRank()
	}
	return spaces.NewFloatBox()
}

// ScopesSorted renders the sorted list of scopes in a stats set (helper for
// error messages and visualization).
func ScopesSorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
