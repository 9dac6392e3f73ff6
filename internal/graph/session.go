package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"rlgraph/internal/tensor"
)

// Feeds maps placeholder nodes to their input values for one Run.
type Feeds map[*Node]*tensor.Tensor

// Session executes a graph. Like a TF session, it is created once per graph
// and invoked repeatedly; each fetch-set is compiled once into an execution
// plan (topological step list + dense value slots) and cached, so repeated
// Runs are a flat iteration with no recursion and no per-run memo map.
// Sessions additionally keep counters the benchmarks use to verify the "one
// batched session call per agent API call" property the paper attributes to
// RLgraph's TF executor.
//
// Concurrency contract: a Session is safe for concurrent Run/RunCompiled
// calls — counters are atomic and the plan cache sits behind an RWMutex. The
// graph itself must be frozen (no Add/AddDep) once the session starts
// running; compiled plans do not observe later graph mutations.
type Session struct {
	g *Graph

	// parallelism is the worker count for plan execution (<=1 = serial).
	parallelism atomic.Int32

	// fusion enables the plan compiler's elementwise fusion pass; bufferReuse
	// lets both executors recycle intermediate buffers through arena — the
	// serial executor on last use, the parallel executor in completion order.
	// Both are always on outside this package's tests, which store false to
	// get the unfused / no-reuse reference path: results are bit-for-bit
	// identical either way (see fuse.go and Plan.computeRelease). Fused and
	// unfused plans are cached under distinct keys and a compiled Plan keeps
	// the setting it was compiled with; bufferReuse is read per run.
	fusion      atomic.Bool
	bufferReuse atomic.Bool
	arena       *tensor.Arena

	runCount       atomic.Int64
	nodesEvaluated atomic.Int64

	mu              sync.Mutex
	deviceNodeCount map[string]int
	devLimits       map[string]int
	knownDevices    map[string]bool // nil = no validation
	knownList       []string        // sorted, for error messages

	planMu sync.RWMutex
	plans  map[string]*Plan
}

// NewSession returns a session for g.
func NewSession(g *Graph) *Session {
	s := &Session{
		g:               g,
		arena:           tensor.NewArena(),
		deviceNodeCount: make(map[string]int),
		plans:           make(map[string]*Plan),
	}
	s.fusion.Store(true)
	s.bufferReuse.Store(true)
	return s
}

// Graph returns the session's graph.
func (s *Session) Graph() *Graph { return s.g }

// SetParallelism sets the number of workers used to execute plan steps
// (n <= 1 selects the serial executor). Steps on the same named device still
// serialize through the device's stream limit (see SetDeviceLimits), and
// stateful steps always run in serial-evaluation order, so results are
// independent of the parallelism level. Safe to call concurrently with Run;
// it affects subsequent runs.
func (s *Session) SetParallelism(n int) { s.parallelism.Store(int32(n)) }

// Parallelism returns the current worker count.
func (s *Session) Parallelism() int { return int(s.parallelism.Load()) }

// ArenaStats reports the session arena's (allocations served, pool hits)
// counters — the benchmark hook for verifying plan-level buffer reuse.
func (s *Session) ArenaStats() (gets, hits int64) { return s.arena.Stats() }

// SetDeviceLimits sets per-device op-stream limits for the parallel
// scheduler: at most limits[name] steps assigned to device name execute
// concurrently (unset or <1 means 1 — fully serialized, like a single
// accelerator stream). Nodes without a device assignment are unconstrained.
// The map is copied.
func (s *Session) SetDeviceLimits(limits map[string]int) {
	m := make(map[string]int, len(limits))
	for k, v := range limits {
		m[k] = v
	}
	s.mu.Lock()
	s.devLimits = m
	s.mu.Unlock()
}

// SetKnownDevices declares the set of valid device names for plan
// compilation. Once set, compiling a plan that contains a step placed on a
// device outside the set fails with an error listing the known devices —
// instead of the unknown name silently falling through to default-device
// behaviour (one scheduler stream, no registry-backed stream limits). The
// empty device name (default placement) is always allowed. Passing an empty
// slice disables validation.
func (s *Session) SetKnownDevices(names []string) {
	var m map[string]bool
	var list []string
	if len(names) > 0 {
		m = make(map[string]bool, len(names))
		for _, n := range names {
			if !m[n] {
				m[n] = true
				list = append(list, n)
			}
		}
		sort.Strings(list)
	}
	s.mu.Lock()
	s.knownDevices = m
	s.knownList = list
	s.mu.Unlock()
}

// validateDevices checks every device a plan's steps were placed on against
// the session's known-device set (when one is configured).
func (s *Session) validateDevices(p *Plan) error {
	s.mu.Lock()
	known, list := s.knownDevices, s.knownList
	s.mu.Unlock()
	if known == nil {
		return nil
	}
	for _, d := range p.statDevices {
		if d != "" && !known[d] {
			return fmt.Errorf("graph: plan places nodes on unknown device %q; known devices: %s", d, strings.Join(list, ", "))
		}
	}
	return nil
}

// deviceLimitsRef returns the current limits map; it is replaced wholesale
// by SetDeviceLimits and never mutated in place, so reading it is safe.
func (s *Session) deviceLimitsRef() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.devLimits
}

// RunCount returns the total number of Run invocations.
func (s *Session) RunCount() int { return int(s.runCount.Load()) }

// NodesEvaluated returns the total number of op evaluations across runs,
// including evaluations performed by runs that ended in an error.
func (s *Session) NodesEvaluated() int { return int(s.nodesEvaluated.Load()) }

// DeviceNodeCounts returns a copy of the per-device op-evaluation tallies.
func (s *Session) DeviceNodeCounts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.deviceNodeCount))
	for k, v := range s.deviceNodeCount {
		out[k] = v
	}
	return out
}

// CompiledPlans returns the number of cached execution plans.
func (s *Session) CompiledPlans() int {
	s.planMu.RLock()
	defer s.planMu.RUnlock()
	return len(s.plans)
}

// ClearPlans drops the plan cache (e.g. after mutating the graph).
func (s *Session) ClearPlans() {
	s.planMu.Lock()
	s.plans = make(map[string]*Plan)
	s.planMu.Unlock()
}

// Run evaluates the fetch nodes under the given feeds, returning one tensor
// per fetch. All fetches (and their control dependencies) are evaluated
// within a single pass over a compiled plan — the static-graph analogue of
// batching all relevant operations into one session call. The plan is
// compiled on first use and cached keyed by the (fetch-set, feed-key-set)
// pair; subsequent Runs are lookup + feed-bind + iterate.
func (s *Session) Run(fetches []*Node, feeds Feeds) ([]*tensor.Tensor, error) {
	p, err := s.planFor(fetches, feeds)
	if err != nil {
		return nil, err
	}
	return s.runPlan(p, feeds)
}

// Run1 evaluates a single fetch.
func (s *Session) Run1(fetch *Node, feeds Feeds) (*tensor.Tensor, error) {
	vs, err := s.Run([]*Node{fetch}, feeds)
	if err != nil {
		return nil, err
	}
	return vs[0], nil
}

// Compile builds (or returns the cached) execution plan for a fetch-set,
// treating feedNodes as run-time sources. Executors precompile one plan per
// registry entry at build time so Execute never pays compilation or cache-key
// hashing; pass the plan to RunCompiled.
func (s *Session) Compile(fetches []*Node, feedNodes []*Node) (*Plan, error) {
	feeds := make(Feeds, len(feedNodes))
	for _, n := range feedNodes {
		feeds[n] = nil
	}
	return s.planFor(fetches, feeds)
}

// RunCompiled executes a plan previously returned by Compile. Every node in
// the plan's feed set must be present in feeds.
func (s *Session) RunCompiled(p *Plan, feeds Feeds) ([]*tensor.Tensor, error) {
	return s.runPlan(p, feeds)
}

// planFor returns the cached plan for (fetches, feed keys), compiling it on
// first use.
func (s *Session) planFor(fetches []*Node, feeds Feeds) (*Plan, error) {
	fuse := s.fusion.Load()
	key := planKey(s.g, fetches, feeds, fuse)
	s.planMu.RLock()
	p := s.plans[key]
	s.planMu.RUnlock()
	if p != nil {
		return p, nil
	}
	fed := make(map[*Node]bool, len(feeds))
	for n := range feeds {
		fed[n] = true
	}
	p, err := compilePlan(s.g, fetches, fed, fuse)
	if err != nil {
		return nil, err
	}
	if err := s.validateDevices(p); err != nil {
		return nil, err
	}
	s.planMu.Lock()
	if existing := s.plans[key]; existing != nil {
		p = existing
	} else {
		s.plans[key] = p
	}
	s.planMu.Unlock()
	return p, nil
}

// RunRecursive evaluates fetches with the legacy recursive tree-walking
// evaluator. It is retained as the reference semantics for differential
// tests — the oracle the plan executors are checked against, not a path any
// shipped code runs; it recurses to the depth of the graph, so deep unrolled
// graphs can exhaust the goroutine stack — use Run instead.
func (s *Session) RunRecursive(fetches []*Node, feeds Feeds) ([]*tensor.Tensor, error) {
	s.runCount.Add(1)
	ctx := &RunCtx{DeviceNodeCount: make(map[string]int)}
	memo := make(map[*Node]*tensor.Tensor, len(fetches)*4)
	out := make([]*tensor.Tensor, len(fetches))
	var runErr error
	for i, f := range fetches {
		v, err := s.evalRecursive(f, feeds, memo, ctx)
		if err != nil {
			runErr = err
			break
		}
		out[i] = v
	}
	// Merge stats even when the run failed, so profiling never undercounts.
	s.nodesEvaluated.Add(int64(ctx.NodesEvaluated))
	s.mu.Lock()
	for d, c := range ctx.DeviceNodeCount {
		s.deviceNodeCount[d] += c
	}
	s.mu.Unlock()
	if runErr != nil {
		return nil, runErr
	}
	return out, nil
}

func (s *Session) evalRecursive(n *Node, feeds Feeds, memo map[*Node]*tensor.Tensor, ctx *RunCtx) (*tensor.Tensor, error) {
	if n.g != s.g {
		return nil, fmt.Errorf("graph: fetch %v belongs to a different graph", n)
	}
	if v, ok := feeds[n]; ok {
		return v, nil
	}
	if v, ok := memo[n]; ok {
		return v, nil
	}
	// Control dependencies run first; results are discarded.
	for _, d := range n.deps {
		if _, err := s.evalRecursive(d, feeds, memo, ctx); err != nil {
			return nil, err
		}
	}
	ins := make([]*tensor.Tensor, len(n.inputs))
	for i, in := range n.inputs {
		v, err := s.evalRecursive(in, feeds, memo, ctx)
		if err != nil {
			return nil, err
		}
		ins[i] = v
	}
	v, err := n.op.Eval(ctx, ins)
	if err != nil {
		return nil, fmt.Errorf("graph: evaluating %v: %w", n, err)
	}
	ctx.NodesEvaluated++
	if ctx.DeviceNodeCount != nil {
		ctx.DeviceNodeCount[n.device]++
	}
	memo[n] = v
	return v, nil
}
