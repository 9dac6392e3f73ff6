package exec

import (
	"fmt"
	"time"

	"rlgraph/internal/backend"
	"rlgraph/internal/component"
	"rlgraph/internal/devices"
	"rlgraph/internal/graph"
	"rlgraph/internal/tensor"
)

// staticEntry is one op-registry record: the placeholders, fetch nodes and
// precompiled execution plan of a root API method.
type staticEntry struct {
	placeholders []*graph.Node
	fetches      []*graph.Node
	plan         *graph.Plan
}

// StaticExecutor compiles the component graph into a dataflow graph once and
// serves every Execute with a single batched session call — the registry
// lookup the paper describes for the TF executor. Build precompiles one
// execution plan per registry entry, so Execute is lookup + feed-bind +
// iterate; the component graph is not touched again at run time.
type StaticExecutor struct {
	root     *component.Component
	g        *graph.Graph
	sess     *graph.Session
	ops      *backend.StaticOps
	registry map[string]*staticEntry
	report   *BuildReport

	// devLimits is applied to the session at Build (and immediately if
	// already built).
	devLimits map[string]int

	// devReg, when set, is the local device inventory: Build wires its names
	// into the session so plans placed on unknown devices fail compilation.
	devReg *devices.Registry
}

// NewStatic returns an unbuilt static executor for root.
func NewStatic(root *component.Component) *StaticExecutor {
	return &StaticExecutor{root: root, registry: make(map[string]*staticEntry)}
}

// BackendName identifies the backend.
func (e *StaticExecutor) BackendName() string { return "static" }

// Graph exposes the built dataflow graph (for visualization/inspection).
func (e *StaticExecutor) Graph() *graph.Graph { return e.g }

// Session exposes the session (for run counters in benchmarks).
func (e *StaticExecutor) Session() *graph.Session { return e.sess }

// Registry returns the op-registry entry for an API (placeholder and fetch
// nodes), or nil.
func (e *StaticExecutor) Registry(api string) ([]*graph.Node, []*graph.Node) {
	ent := e.registry[api]
	if ent == nil {
		return nil, nil
	}
	return ent.placeholders, ent.fetches
}

// Build runs assembly then graph compilation for every root API method, in
// registration order, generating placeholders from the declared input
// spaces and registering input/output ops in the registry.
func (e *StaticExecutor) Build(in InputSpaces) (*BuildReport, error) {
	stats, traceTime, err := assemble(e.root, in)
	if err != nil {
		return nil, err
	}

	e.g = graph.New()
	e.ops = backend.NewStaticOps(e.g)
	ctx := &component.Ctx{Mode: component.ModeCompile, Ops: e.ops, Stats: stats}

	order, err := buildOrder(e.root, in)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for _, api := range order {
		sps := in[api]
		ent := &staticEntry{}
		recs := make([]*component.Rec, len(sps))
		for i, sp := range sps {
			ph := graph.Placeholder(e.g, fmt.Sprintf("%s/%s/arg%d", e.root.Scope(), api, i),
				placeholderShape(sp))
			ent.placeholders = append(ent.placeholders, ph)
			recs[i] = component.NewRec(ph, sp)
		}
		outs := e.root.Call(ctx, api, recs...)
		for _, o := range outs {
			node, ok := o.Ref.(*graph.Node)
			if !ok {
				return nil, fmt.Errorf("exec: API %q returned a non-node record", api)
			}
			ent.fetches = append(ent.fetches, node)
		}
		e.registry[api] = ent
	}
	buildTime := time.Since(start)

	e.sess = graph.NewSession(e.g)
	if e.devLimits != nil {
		e.sess.SetDeviceLimits(e.devLimits)
	}
	if e.devReg != nil {
		e.sess.SetKnownDevices(e.devReg.Names())
	}
	// Precompile one execution plan per registry entry so Execute never pays
	// plan compilation or cache-key hashing.
	for api, ent := range e.registry {
		p, err := e.sess.Compile(ent.fetches, ent.placeholders)
		if err != nil {
			return nil, fmt.Errorf("exec: compiling plan for API %q: %w", api, err)
		}
		ent.plan = p
	}
	e.report = &BuildReport{
		Backend:       e.BackendName(),
		TraceTime:     traceTime,
		BuildTime:     buildTime,
		GraphFnTime:   time.Duration(stats.GraphFnNanos),
		BuildOverhead: buildTime - time.Duration(stats.GraphFnNanos),
		NumComponents: e.root.NumComponents(),
		APICalls:      stats.APICalls,
		GraphFnCalls:  stats.GraphFnCalls,
		GraphNodes:    e.g.NumNodes(),
	}
	return e.report, nil
}

// SetDeviceLimits sets per-device op-stream limits for the parallel
// scheduler (see graph.Session.SetDeviceLimits and DeviceMap.StreamLimits).
// May be called before or after Build.
func (e *StaticExecutor) SetDeviceLimits(limits map[string]int) {
	m := make(map[string]int, len(limits))
	for k, v := range limits {
		m[k] = v
	}
	e.devLimits = m
	if e.sess != nil {
		e.sess.SetDeviceLimits(m)
	}
}

// SetDeviceRegistry wires the local device inventory into the executor: plan
// compilation (at Build, and for any later fetch-set) rejects node placements
// on devices missing from the registry, with an error listing the known
// names. Call before Build; nil disables validation.
func (e *StaticExecutor) SetDeviceRegistry(r *devices.Registry) {
	e.devReg = r
	if e.sess != nil {
		if r != nil {
			e.sess.SetKnownDevices(r.Names())
		} else {
			e.sess.SetKnownDevices(nil)
		}
	}
}

// Execute looks the API up in the op registry, validates and assembles
// feeds, and issues one batched session call over the entry's precompiled
// plan.
func (e *StaticExecutor) Execute(api string, inputs ...*tensor.Tensor) ([]*tensor.Tensor, error) {
	ent := e.registry[api]
	if ent == nil {
		return nil, fmt.Errorf("exec: unknown API %q (did you Build?)", api)
	}
	if len(inputs) != len(ent.placeholders) {
		return nil, fmt.Errorf("exec: API %q wants %d inputs, got %d",
			api, len(ent.placeholders), len(inputs))
	}
	feeds := make(graph.Feeds, len(inputs))
	for i, in := range inputs {
		ph := ent.placeholders[i]
		if err := checkFeed(api, i, ph.Name(), ph.Shape(), in); err != nil {
			return nil, err
		}
		feeds[ph] = in
	}
	return e.sess.RunCompiled(ent.plan, feeds)
}
