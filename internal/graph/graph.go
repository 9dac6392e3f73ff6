// Package graph implements the dataflow graph behind both backends. Under
// the static backend — the TensorFlow substitute in this reproduction —
// programs are built once as a DAG of operation nodes (placeholders, variable
// reads, math ops, stateful ops), differentiated graph-to-graph with
// reverse-mode autodiff, and then executed repeatedly through a Session that
// takes feeds and fetches, exactly mirroring how RLgraph's TensorFlow graph
// executor batches an agent API call into a single session invocation. Under
// define-by-run — the PyTorch substitute — an eager graph (NewEager)
// evaluates each node as it is added, and Gradients differentiates the nodes
// one pass recorded: the same ops, kernels and gradient rules either way.
package graph

import (
	"fmt"

	"rlgraph/internal/tensor"
)

// Node is one operation in the dataflow graph.
type Node struct {
	id     int
	g      *Graph
	op     Op
	inputs []*Node
	deps   []*Node // control dependencies, evaluated before this node
	shape  []int   // static shape; -1 marks unknown dims (e.g. batch)
	name   string
	device string
	val    *tensor.Tensor // the node's value in an eager graph; nil otherwise
}

// ID returns the node's unique id within its graph.
func (n *Node) ID() int { return n.id }

// Op returns the node's operation.
func (n *Node) Op() Op { return n.op }

// Inputs returns the node's data inputs.
func (n *Node) Inputs() []*Node { return n.inputs }

// Shape returns the statically inferred shape (-1 for unknown dims); in an
// eager graph, the concrete shape of the node's value.
func (n *Node) Shape() []int { return n.shape }

// Value returns the value an eager graph computed for the node (nil in a
// static graph).
func (n *Node) Value() *tensor.Tensor { return n.val }

// Name returns the node's name (may be empty).
func (n *Node) Name() string { return n.name }

// Device returns the device this node is assigned to ("" = default).
func (n *Node) Device() string { return n.device }

// SetDevice assigns the node to a device. Re-assigning a node to a different
// device bumps the graph's placement epoch, which invalidates cached
// execution plans (plan cache keys include the epoch) so stale placements
// are never served after a re-placement.
func (n *Node) SetDevice(d string) {
	if n.device != d {
		n.device = d
		n.g.placementEpoch++
	}
}

// WithName sets the node's name and returns it for chaining.
func (n *Node) WithName(name string) *Node {
	n.name = name
	return n
}

// AddDep adds a control dependency: dep is evaluated before n.
func (n *Node) AddDep(dep *Node) { n.deps = append(n.deps, dep) }

func (n *Node) String() string {
	return fmt.Sprintf("%s#%d%v", n.op.Name(), n.id, n.shape)
}

// Graph owns a set of nodes. It is append-only; nodes are never removed.
type Graph struct {
	nodes  []*Node
	device string // current default device for new nodes

	// eager graphs evaluate each node when Add creates it; record keeps the
	// nodes and their input edges for Gradients (see NewEager).
	eager, record bool

	// placementEpoch counts device re-assignments (Node.SetDevice with a new
	// value). Plan cache keys include it, so re-placing nodes invalidates
	// previously cached plans instead of serving stale placements. Like graph
	// construction, placement is a build-time activity: it must not race with
	// Session runs.
	placementEpoch uint64
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// NewEager returns an empty define-by-run graph: Add evaluates each node's op
// on its inputs' values as it creates the node, and stores the value and its
// concrete shape on the node. A graph that does not record keeps neither its
// nodes nor their input edges, so each intermediate is freed as soon as no
// caller holds its node; Gradients needs a recording graph.
func NewEager(record bool) *Graph { return &Graph{eager: true, record: record} }

// EvalError is the panic value of a node that fails to evaluate in an eager
// graph (graph functions have no error path). Err reads exactly as the error
// Session.Run returns for the same failure; define-by-run executors recover
// it into that error.
type EvalError struct{ Err error }

func (e *EvalError) Error() string { return e.Err.Error() }

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Nodes returns all nodes in creation order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// SetDefaultDevice sets the device assigned to subsequently added nodes.
func (g *Graph) SetDefaultDevice(d string) { g.device = d }

// DefaultDevice returns the current default device.
func (g *Graph) DefaultDevice() string { return g.device }

// PlacementEpoch returns the number of device re-assignments performed on the
// graph's nodes. It changes only when SetDevice actually moves a node.
func (g *Graph) PlacementEpoch() uint64 { return g.placementEpoch }

// Add creates a node for op with the given inputs, running static shape
// inference. It panics on shape errors: graph construction happens at build
// time where misuse is a programming error, matching TF's behaviour of
// raising during graph definition. In an eager graph Add then evaluates the
// node, and a failed evaluation panics with an *EvalError.
func (g *Graph) Add(op Op, inputs ...*Node) *Node {
	shapes := make([][]int, len(inputs))
	for i, in := range inputs {
		if in.g != g {
			panic(fmt.Sprintf("graph: input %v belongs to a different graph", in))
		}
		shapes[i] = in.shape
	}
	shape, err := op.InferShape(shapes)
	if err != nil {
		panic(fmt.Sprintf("graph: %s: %v", op.Name(), err))
	}
	n := &Node{
		id:     len(g.nodes),
		g:      g,
		op:     op,
		inputs: inputs,
		shape:  shape,
		device: g.device,
	}
	if g.eager {
		ins := make([]*tensor.Tensor, len(inputs))
		for i, in := range inputs {
			ins[i] = in.val
		}
		v, err := op.Eval(nil, ins)
		if err != nil {
			panic(&EvalError{fmt.Errorf("graph: evaluating %v: %w", n, err)})
		}
		n.val, n.shape = v, v.Shape()
		if !g.record {
			n.inputs = nil
			return n
		}
	}
	g.nodes = append(g.nodes, n)
	return n
}

// Op is a graph operation. Eval must not mutate its inputs.
type Op interface {
	// Name identifies the op kind (e.g. "MatMul").
	Name() string
	// InferShape computes the static output shape from input shapes.
	// Unknown dimensions are -1.
	InferShape(in [][]int) ([]int, error)
	// Eval computes the output from concrete inputs.
	Eval(ctx *RunCtx, inputs []*tensor.Tensor) (*tensor.Tensor, error)
}

// GradOp is implemented by differentiable ops. Grad emits gradient nodes for
// each input given the forward node n and the upstream gradient node gy;
// entries may be nil for non-differentiable inputs.
type GradOp interface {
	Op
	Grad(g *Graph, n *Node, gy *Node) []*Node
}

// ValueSemanticsOp is implemented by ops whose Eval (1) returns freshly
// allocated storage that aliases neither its inputs nor any external state,
// and (2) reads its inputs only for the duration of Eval, retaining no
// reference or view afterwards. The plan executor's liveness analysis
// (see plan.go) only recycles an intermediate's buffer when its producer and
// every consumer carry this marker; ops that alias (Identity, Reshape), share
// (Const, VarRead), or retain (host-function ops) must not implement
// it. The marker says nothing about purity: ApplyUpdate writes a variable in
// place and still qualifies, because its result is fresh and it keeps no
// input.
type ValueSemanticsOp interface {
	Op
	// ValueSemantics marks the op; it carries no behaviour.
	ValueSemantics()
}

// RunCtx carries per-Run state to op evaluation (statistics, scratch).
type RunCtx struct {
	// NodesEvaluated counts op evaluations in this run (profiling hook).
	NodesEvaluated int
	// DeviceNodeCount tallies evaluations per device name.
	DeviceNodeCount map[string]int

	// arena recycles intermediate buffers when a plan executor runs with
	// buffer reuse enabled; nil otherwise.
	arena *tensor.Arena
}

// NewTensor returns a zero-filled tensor of the given shape, drawing from the
// run's buffer arena when one is attached. Ops should allocate outputs
// through it so plan-level buffer reuse can recycle intermediates; with no
// arena (recursive evaluator, buffer reuse off) it is exactly tensor.New.
func (c *RunCtx) NewTensor(shape ...int) *tensor.Tensor {
	if c == nil || c.arena == nil {
		return tensor.New(shape...)
	}
	return c.arena.Get(shape...)
}

// NewTensor2 is NewTensor for the common rank-2 case with a fixed-arity
// signature, so hot callers (matmul evals) pay no variadic shape-slice
// allocation per run.
func (c *RunCtx) NewTensor2(d0, d1 int) *tensor.Tensor {
	if c == nil || c.arena == nil {
		return tensor.New(d0, d1)
	}
	return c.arena.Get2(d0, d1)
}

// mergeDims unifies two possibly-unknown dims, or errors.
func mergeDims(a, b int) (int, error) {
	switch {
	case a == b:
		return a, nil
	case a == -1:
		return b, nil
	case b == -1:
		return a, nil
	default:
		return 0, fmt.Errorf("incompatible dims %d and %d", a, b)
	}
}

// broadcastStatic performs static broadcast shape inference with -1 dims.
func broadcastStatic(a, b []int) ([]int, error) {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		da, db := 1, 1
		if i >= n-len(a) {
			da = a[i-(n-len(a))]
		}
		if i >= n-len(b) {
			db = b[i-(n-len(b))]
		}
		switch {
		case da == 1:
			out[i] = db
		case db == 1:
			out[i] = da
		default:
			d, err := mergeDims(da, db)
			if err != nil {
				return nil, fmt.Errorf("cannot broadcast %v with %v", a, b)
			}
			out[i] = d
		}
	}
	return out, nil
}
