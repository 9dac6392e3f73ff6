// Package misc provides infrastructure components: weight synchronization,
// the shared blocking FIFO queue and the staging area used by the IMPALA
// architecture (paper §5.1, Distributed TensorFlow), and container
// split/merge helpers.
package misc

import (
	"fmt"
	"sync"

	"rlgraph/internal/component"
	"rlgraph/internal/graph"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// Synchronizer copies weights from a source variable store to a destination
// store (target-network sync, learner→worker weight push). Stores are
// resolved lazily so the synchronizer can be wired before builds complete.
type Synchronizer struct {
	*component.Component
	src, dst func() *vars.Store
	// Syncs counts executed synchronizations.
	Syncs int
}

// NewSynchronizer returns a synchronizer component with a "sync" API.
func NewSynchronizer(name string, src, dst func() *vars.Store) *Synchronizer {
	s := &Synchronizer{Component: component.New(name), src: src, dst: dst}
	s.DefineAPI("sync", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return s.GraphFn(ctx, "sync", 1, s.syncFn, in...)
	})
	return s
}

func (s *Synchronizer) syncFn(g *graph.Graph, _ []*graph.Node) []*graph.Node {
	out := graph.Stateful(g, "Sync", []int{}, func([]*tensor.Tensor) (*tensor.Tensor, error) {
		n, err := SyncStores(s.src(), s.dst())
		if err != nil {
			return nil, err
		}
		s.Syncs++
		return tensor.Scalar(float64(n)), nil
	})
	return []*graph.Node{out}
}

// SyncStores copies values between stores by positional order (source and
// destination must hold the same variable layout, e.g. online → target
// network). It returns the number of variables copied.
func SyncStores(src, dst *vars.Store) (int, error) {
	sv, dv := src.All(), dst.All()
	if len(sv) != len(dv) {
		return 0, fmt.Errorf("misc: sync store size mismatch: %d vs %d", len(sv), len(dv))
	}
	for i := range sv {
		if !tensor.SameShape(sv[i].Val.Shape(), dv[i].Val.Shape()) {
			return 0, fmt.Errorf("misc: sync shape mismatch at %q: %v vs %v",
				dv[i].Name, sv[i].Val.Shape(), dv[i].Val.Shape())
		}
		dv[i].Val = sv[i].Val.Clone()
	}
	return len(sv), nil
}

// FIFOQueue is a bounded, thread-safe blocking queue of multi-tensor records
// — the globally shared rollout queue of the IMPALA architecture. Enqueue
// blocks when full; dequeue blocks when empty. Both are exposed as API
// methods so queue interaction is part of the computation graph (graph-fused
// environment stepping, paper §5.1).
type FIFOQueue struct {
	*component.Component

	capacity  int
	numFields int

	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	items    [][]*tensor.Tensor
	closed   bool

	rowShapes [][]int
}

// NewFIFOQueue returns a queue of numFields-tensor records.
func NewFIFOQueue(name string, capacity, numFields int) *FIFOQueue {
	q := &FIFOQueue{Component: component.New(name), capacity: capacity, numFields: numFields}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpty = sync.NewCond(&q.mu)
	q.SetImpl(q)
	q.SetVarCreatorFns("enqueue")
	q.DefineAPI("enqueue", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return q.GraphFn(ctx, "enqueue", 1, q.enqueueFn, in...)
	})
	q.DefineAPI("dequeue", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return q.GraphFn(ctx, "dequeue", q.numFields, q.dequeueFn, in...)
	})
	return q
}

// CreateVariables records the record layout from the enqueue spaces.
func (q *FIFOQueue) CreateVariables(inSpaces []spaces.Space) error {
	if len(inSpaces) != q.numFields {
		return fmt.Errorf("misc: queue %q configured for %d fields, enqueue saw %d",
			q.Name(), q.numFields, len(inSpaces))
	}
	q.rowShapes = make([][]int, q.numFields)
	for i, sp := range inSpaces {
		q.rowShapes[i] = append([]int(nil), sp.Shape()...)
	}
	return nil
}

func (q *FIFOQueue) enqueueFn(g *graph.Graph, in []*graph.Node) []*graph.Node {
	out := graph.Stateful(g, "QEnqueue", []int{}, func(ts []*tensor.Tensor) (*tensor.Tensor, error) {
		rec := make([]*tensor.Tensor, len(ts))
		copy(rec, ts)
		q.mu.Lock()
		defer q.mu.Unlock()
		for len(q.items) >= q.capacity && !q.closed {
			q.notFull.Wait()
		}
		if q.closed {
			return nil, fmt.Errorf("misc: queue %q closed", q.Name())
		}
		q.items = append(q.items, rec)
		q.notEmpty.Signal()
		return tensor.Scalar(float64(len(q.items))), nil
	}, in...)
	return []*graph.Node{out}
}

func (q *FIFOQueue) dequeueFn(g *graph.Graph, _ []*graph.Node) []*graph.Node {
	shapes := make([][]int, q.numFields)
	for i := range shapes {
		if q.rowShapes != nil {
			shapes[i] = append([]int{-1}, q.rowShapes[i]...)
		} else {
			shapes[i] = []int{-1}
		}
	}
	return graph.StatefulMulti(g, "QDequeue", shapes, func([]*tensor.Tensor) ([]*tensor.Tensor, error) {
		q.mu.Lock()
		defer q.mu.Unlock()
		for len(q.items) == 0 && !q.closed {
			q.notEmpty.Wait()
		}
		if len(q.items) == 0 && q.closed {
			return nil, fmt.Errorf("misc: queue %q closed", q.Name())
		}
		rec := q.items[0]
		q.items = q.items[1:]
		q.notFull.Signal()
		return rec, nil
	})
}

// Len returns the current queue length.
func (q *FIFOQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Close unblocks all waiters with an error.
func (q *FIFOQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
}

// StagingArea is a one-slot pipeline buffer: put stores a record and get
// returns the previously staged one, hiding device-transfer latency behind
// compute exactly like the staging areas in the IMPALA learner.
type StagingArea struct {
	*component.Component

	numFields int
	slot      [][]*tensor.Tensor
	rowShapes [][]int
}

// NewStagingArea returns a staging component.
func NewStagingArea(name string, numFields int) *StagingArea {
	s := &StagingArea{Component: component.New(name), numFields: numFields}
	s.SetImpl(s)
	s.SetVarCreatorFns("put")
	s.DefineAPI("put", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return s.GraphFn(ctx, "put", 1, s.putFn, in...)
	})
	s.DefineAPI("get", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return s.GraphFn(ctx, "get", s.numFields, s.getFn, in...)
	})
	return s
}

// CreateVariables records the record layout from the put spaces.
func (s *StagingArea) CreateVariables(inSpaces []spaces.Space) error {
	s.rowShapes = make([][]int, len(inSpaces))
	for i, sp := range inSpaces {
		s.rowShapes[i] = append([]int(nil), sp.Shape()...)
	}
	return nil
}

func (s *StagingArea) putFn(g *graph.Graph, in []*graph.Node) []*graph.Node {
	out := graph.Stateful(g, "StagePut", []int{}, func(ts []*tensor.Tensor) (*tensor.Tensor, error) {
		rec := make([]*tensor.Tensor, len(ts))
		copy(rec, ts)
		s.slot = append(s.slot, rec)
		return tensor.Scalar(float64(len(s.slot))), nil
	}, in...)
	return []*graph.Node{out}
}

func (s *StagingArea) getFn(g *graph.Graph, _ []*graph.Node) []*graph.Node {
	shapes := make([][]int, s.numFields)
	for i := range shapes {
		if s.rowShapes != nil {
			shapes[i] = append([]int{-1}, s.rowShapes[i]...)
		} else {
			shapes[i] = []int{-1}
		}
	}
	return graph.StatefulMulti(g, "StageGet", shapes, func([]*tensor.Tensor) ([]*tensor.Tensor, error) {
		if len(s.slot) == 0 {
			return nil, fmt.Errorf("misc: staging area %q empty", s.Name())
		}
		rec := s.slot[0]
		s.slot = s.slot[1:]
		return rec, nil
	})
}

// Depth returns the number of staged records.
func (s *StagingArea) Depth() int { return len(s.slot) }
