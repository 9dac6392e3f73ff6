// Package exec implements graph executors (paper §4.1): the execution bridge
// between a component graph and a backend. Executors run the build phases
// (assembly, then compilation), maintain the op/API registry, and serve
// execute() requests against the built program — one batched session call
// per request on the static backend, a component-graph traversal on the
// define-by-run backend.
package exec

import (
	"fmt"
	"time"

	"rlgraph/internal/component"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// InputSpaces declares, per root API method, the spaces of its parameters —
// the only type/shape information users must provide (paper §3.3). APIs
// without parameters map to an empty slice.
type InputSpaces map[string][]spaces.Space

// BuildReport captures the cost breakdown of the two build phases for the
// Fig. 5a experiment.
type BuildReport struct {
	// Backend names the backend built for.
	Backend string
	// TraceTime is the assembly-phase duration (component-graph creation).
	TraceTime time.Duration
	// BuildTime is the compile-phase duration (variables + operations).
	BuildTime time.Duration
	// GraphFnTime is time spent inside graph-fn bodies during compile —
	// work that happens with or without RLgraph.
	GraphFnTime time.Duration
	// BuildOverhead is BuildTime - GraphFnTime: the framework's own cost.
	BuildOverhead time.Duration
	// NumComponents is the size of the component graph.
	NumComponents int
	// APICalls and GraphFnCalls count traversal edges and graph functions.
	APICalls, GraphFnCalls int
	// GraphNodes is the number of backend graph nodes created (static only).
	GraphNodes int
}

func (r *BuildReport) String() string {
	return fmt.Sprintf("%s build: trace=%v build=%v overhead=%v components=%d apis=%d graphFns=%d nodes=%d",
		r.Backend, r.TraceTime, r.BuildTime, r.BuildOverhead,
		r.NumComponents, r.APICalls, r.GraphFnCalls, r.GraphNodes)
}

// Executor serves API calls against a built component graph.
type Executor interface {
	// BackendName identifies the backend ("static" / "define-by-run").
	BackendName() string
	// Build runs assembly and compilation for the root's registered APIs,
	// in registration order, using the declared input spaces.
	Build(in InputSpaces) (*BuildReport, error)
	// Execute invokes a root API method with concrete inputs.
	Execute(api string, inputs ...*tensor.Tensor) ([]*tensor.Tensor, error)
}

// placeholderShape converts a primitive space into a static shape with a
// -1 batch dim.
func placeholderShape(sp spaces.Space) []int {
	if sp.HasBatchRank() {
		return append([]int{-1}, sp.Shape()...)
	}
	return append([]int(nil), sp.Shape()...)
}

// shapeCompatible reports whether a concrete tensor shape matches a
// wildcard shape (-1 dims, the batch rank of placeholderShape, match
// any size — including 0, so an all-rows-evicted serving batch still
// validates).
func shapeCompatible(want, got []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if want[i] != -1 && want[i] != got[i] {
			return false
		}
	}
	return true
}

// checkFeed validates one fed tensor against its wildcard shape so that a
// wrong-shaped input fails at the API boundary — naming the API, argument
// index and placeholder — on every backend, instead of panicking deep
// inside an op evaluation. The serving layer relies on this contract: a bad
// observation must come back as that request's error, not kill the batcher.
func checkFeed(api string, arg int, name string, want []int, in *tensor.Tensor) error {
	if in == nil {
		return fmt.Errorf("exec: Execute(%q) argument %d (%s): nil tensor", api, arg, name)
	}
	if !shapeCompatible(want, in.Shape()) {
		return fmt.Errorf("exec: Execute(%q) argument %d (%s): tensor shape %v incompatible with placeholder shape %v (-1 matches any dim)",
			api, arg, name, in.Shape(), want)
	}
	return nil
}

// buildOrder returns the root APIs to build: those with declared input
// spaces, in registration order. Declaring spaces for a non-existent API is
// an error; registered APIs without declared spaces are left unbuilt.
func buildOrder(root *component.Component, in InputSpaces) ([]string, error) {
	known := make(map[string]bool)
	var order []string
	for _, api := range root.APINames() {
		known[api] = true
		if _, ok := in[api]; ok {
			order = append(order, api)
		}
	}
	for api := range in {
		if !known[api] {
			return nil, fmt.Errorf("exec: input spaces declared for unknown root API %q", api)
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("exec: no root API has declared input spaces")
	}
	return order, nil
}

// assemble runs the phase-2 traversal over the buildable root APIs (type-
// and dimension-less), returning stats.
func assemble(root *component.Component, in InputSpaces) (*component.Stats, time.Duration, error) {
	order, err := buildOrder(root, in)
	if err != nil {
		return nil, 0, err
	}
	stats := component.NewStats()
	ctx := &component.Ctx{Mode: component.ModeAssemble, Stats: stats}
	start := time.Now()
	for _, api := range order {
		sps := in[api]
		recs := make([]*component.Rec, len(sps))
		for i := range recs {
			recs[i] = &component.Rec{}
		}
		root.Call(ctx, api, recs...)
	}
	return stats, time.Since(start), nil
}
