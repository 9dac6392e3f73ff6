package exec

import (
	"fmt"
	"time"

	"rlgraph/internal/component"
	"rlgraph/internal/graph"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// DefineByRunExecutor builds the component graph once by pushing artificial
// zero tensors through it (creating variables via shape inference, as the
// paper's PyTorch backend does) and then serves Execute calls by directly
// evaluating the call-chain of graph functions — define-by-run semantics
// behind the same execute() interface as the static executor.
type DefineByRunExecutor struct {
	root      *component.Component
	inAPIs    InputSpaces
	report    *BuildReport
	built     bool
	builtAPIs map[string]bool
}

// NewDefineByRun returns an unbuilt define-by-run executor for root.
func NewDefineByRun(root *component.Component) *DefineByRunExecutor {
	return &DefineByRunExecutor{root: root}
}

// BackendName identifies the backend.
func (e *DefineByRunExecutor) BackendName() string { return "define-by-run" }

// Build traces the component graph and then pushes zero tensors shaped by
// the declared input spaces through every API so each component becomes
// input-complete and creates its variables.
func (e *DefineByRunExecutor) Build(in InputSpaces) (*BuildReport, error) {
	stats, traceTime, err := assemble(e.root, in)
	if err != nil {
		return nil, err
	}
	e.inAPIs = in

	order, err := buildOrder(e.root, in)
	if err != nil {
		return nil, err
	}
	e.builtAPIs = make(map[string]bool, len(order))
	start := time.Now()
	g := graph.NewBuildPass()
	ctx := &component.Ctx{Mode: component.ModeCompile, G: g, Stats: stats}
	for _, api := range order {
		e.builtAPIs[api] = true
		sps := in[api]
		recs := make([]*component.Rec, len(sps))
		for i, sp := range sps {
			recs[i] = component.NewRec(graph.Const(g, buildInput(sp)), sp)
		}
		e.root.Call(ctx, api, recs...)
	}
	buildTime := time.Since(start)

	e.built = true
	e.report = &BuildReport{
		Backend:       e.BackendName(),
		TraceTime:     traceTime,
		BuildTime:     buildTime,
		GraphFnTime:   time.Duration(stats.GraphFnNanos),
		BuildOverhead: buildTime - time.Duration(stats.GraphFnNanos),
		NumComponents: e.root.NumComponents(),
		APICalls:      stats.APICalls,
		GraphFnCalls:  stats.GraphFnCalls,
	}
	return e.report, nil
}

// buildInput creates the artificial placeholder tensor for a space (batch
// size 1).
func buildInput(sp spaces.Space) *tensor.Tensor { return sp.Zeros(1) }

// Execute directly evaluates the call-chain of graph functions for the API.
// APIs marked NoGrad run on an eager graph that records nothing; others get
// a recording one so graph fns may request Gradients. An op that fails to
// evaluate (e.g. a stateful op on a closed queue) surfaces as the same error
// Session.Run returns for it on the static backend.
func (e *DefineByRunExecutor) Execute(api string, inputs ...*tensor.Tensor) (_ []*tensor.Tensor, err error) {
	defer func() {
		if r := recover(); r != nil {
			ee, ok := r.(*graph.EvalError)
			if !ok {
				panic(r)
			}
			err = ee.Err
		}
	}()
	return e.execute(api, inputs...)
}

func (e *DefineByRunExecutor) execute(api string, inputs ...*tensor.Tensor) ([]*tensor.Tensor, error) {
	if !e.built {
		return nil, fmt.Errorf("exec: Execute before Build")
	}
	a := e.root.LookupAPI(api)
	if a == nil {
		return nil, fmt.Errorf("exec: unknown API %q", api)
	}
	if !e.builtAPIs[api] {
		return nil, fmt.Errorf("exec: API %q was not built (no input spaces declared)", api)
	}
	// Validate feeds against the declared input spaces at the API boundary,
	// exactly like the static executor does against its placeholders: any
	// leading batch size matches the wildcard batch/time dims, and a
	// wrong-shaped input becomes an error instead of a panic inside a graph
	// function.
	sps := e.inAPIs[api]
	if len(inputs) != len(sps) {
		return nil, fmt.Errorf("exec: API %q wants %d inputs, got %d", api, len(sps), len(inputs))
	}
	for i, in := range inputs {
		sp := sps[i]
		if err := checkFeed(api, i, sp.String(), placeholderShape(sp), in); err != nil {
			return nil, err
		}
	}
	g := graph.NewEager(!a.NoGrad)
	ctx := &component.Ctx{Mode: component.ModeRun, G: g}
	recs := make([]*component.Rec, len(inputs))
	for i, in := range inputs {
		recs[i] = component.NewRec(graph.Const(g, in), nil)
	}
	outs := e.root.Call(ctx, api, recs...)
	res := make([]*tensor.Tensor, len(outs))
	for i, o := range outs {
		res[i] = o.Ref.Value()
	}
	return res, nil
}
