package exec

import (
	"fmt"
	"math/rand"

	"rlgraph/internal/component"
	"rlgraph/internal/tensor"
)

// ComponentTest builds an arbitrary component (or component combination) in
// isolation from declared input spaces and lets tests push example data
// through any of its API methods — the paper's sub-graph testing mechanism
// (Listing 1). Every component in this repository's library is exercised
// through it, on both backends.
type ComponentTest struct {
	exec   Executor
	report *BuildReport
	in     InputSpaces
}

// NewComponentTest builds comp for the named backend (see New) with the
// declared per-API input spaces.
func NewComponentTest(backendName string, comp *component.Component, in InputSpaces) (*ComponentTest, error) {
	ex, err := New(backendName, comp)
	if err != nil {
		return nil, err
	}
	rep, err := ex.Build(in)
	if err != nil {
		return nil, err
	}
	return &ComponentTest{exec: ex, report: rep, in: in}, nil
}

// Report returns the build report.
func (ct *ComponentTest) Report() *BuildReport { return ct.report }

// Executor returns the underlying executor.
func (ct *ComponentTest) Executor() Executor { return ct.exec }

// Test calls an API method with concrete inputs, delegating to the executor.
func (ct *ComponentTest) Test(api string, inputs ...*tensor.Tensor) ([]*tensor.Tensor, error) {
	return ct.exec.Execute(api, inputs...)
}

// Test1 calls an API expecting exactly one output.
func (ct *ComponentTest) Test1(api string, inputs ...*tensor.Tensor) (*tensor.Tensor, error) {
	outs, err := ct.Test(api, inputs...)
	if err != nil {
		return nil, err
	}
	if len(outs) != 1 {
		return nil, fmt.Errorf("exec: API %q returned %d outputs, want 1", api, len(outs))
	}
	return outs[0], nil
}

// Sample draws a batch from the API's declared input spaces — the
// fine-granular input generation the paper argues RL debugging needs.
func (ct *ComponentTest) Sample(api string, rng *rand.Rand, batch int) []*tensor.Tensor {
	sps := ct.in[api]
	out := make([]*tensor.Tensor, len(sps))
	for i, sp := range sps {
		out[i] = sp.Sample(rng, batch)
	}
	return out
}

// TestWithSamples samples inputs from the declared spaces and calls the API.
func (ct *ComponentTest) TestWithSamples(api string, rng *rand.Rand, batch int) ([]*tensor.Tensor, error) {
	return ct.Test(api, ct.Sample(api, rng, batch)...)
}

// Backends lists the two supported backend names, for table-driven tests
// that must pass on both.
func Backends() []string { return []string{"static", "define-by-run"} }
