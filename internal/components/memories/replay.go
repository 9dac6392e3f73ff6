package memories

import (
	"fmt"
	"math/rand"

	"rlgraph/internal/component"
	"rlgraph/internal/graph"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// RingReplay is a uniform FIFO replay memory over records with a fixed
// number of fields (e.g. state, action, reward, next-state, terminal). The
// record layout is inferred from the spaces flowing into the insert API at
// build time; buffers are allocated then — the memory cannot define its
// storage before it knows shapes and types of buffer contents (paper §3.3).
//
// API methods:
//
//	insert(f0..fN-1) -> size          // batched records
//	sample(batch)    -> f0..fN-1      // uniform without replacement bias
type RingReplay struct {
	*component.Component

	capacity  int
	numFields int
	rng       *rand.Rand

	storage *ringStorage
}

// NewRingReplay returns a replay memory for numFields-field records.
func NewRingReplay(name string, capacity, numFields int, seed int64) *RingReplay {
	m := &RingReplay{
		Component: component.New(name),
		capacity:  capacity,
		numFields: numFields,
		rng:       rand.New(rand.NewSource(seed)),
	}
	m.SetImpl(m)
	m.SetVarCreatorFns("insert")
	m.DefineAPI("insert", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return m.GraphFn(ctx, "insert", 1, m.insertFn, in...)
	})
	m.DefineAPI("sample", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return m.GraphFn(ctx, "sample", m.numFields, m.sampleFn, in...)
	})
	return m
}

// CreateVariables allocates the ring buffers from the insert record spaces.
func (m *RingReplay) CreateVariables(inSpaces []spaces.Space) error {
	if len(inSpaces) != m.numFields {
		return fmt.Errorf("memories: %q configured for %d fields, insert saw %d",
			m.Name(), m.numFields, len(inSpaces))
	}
	m.storage = newRingStorage(m.capacity, fieldShapesFromSpaces(inSpaces))
	return nil
}

func (m *RingReplay) insertFn(g *graph.Graph, in []*graph.Node) []*graph.Node {
	out := graph.Stateful(g, "MemInsert", []int{}, func(ts []*tensor.Tensor) (*tensor.Tensor, error) {
		if m.storage == nil {
			return nil, fmt.Errorf("memories: %q sampled/inserted before buffers exist", m.Name())
		}
		m.storage.insertBatch(ts)
		return tensor.Scalar(float64(m.storage.size)), nil
	}, in...)
	return []*graph.Node{out}
}

func (m *RingReplay) sampleFn(g *graph.Graph, in []*graph.Node) []*graph.Node {
	return graph.StatefulMulti(g, "MemSample", m.sampleShapes(), func(ts []*tensor.Tensor) ([]*tensor.Tensor, error) {
		if m.storage == nil || m.storage.size == 0 {
			return nil, fmt.Errorf("memories: %q is empty", m.Name())
		}
		batch := int(ts[0].Item())
		slots := make([]int, batch)
		for i := range slots {
			slots[i] = m.rng.Intn(m.storage.size)
		}
		out := make([]*tensor.Tensor, m.numFields)
		for f := 0; f < m.numFields; f++ {
			out[f] = m.storage.gather(f, slots)
		}
		return out, nil
	}, in...)
}

// sampleShapes declares [-1, fieldShape...] output shapes. The storage must
// exist (insert compiles first); the builder reports a clear error
// otherwise.
func (m *RingReplay) sampleShapes() [][]int {
	if m.storage == nil {
		panic(fmt.Sprintf("memories: %q sample built before insert — register/build the "+
			"insert-producing API first (input-incomplete component)", m.Name()))
	}
	out := make([][]int, m.numFields)
	for f, s := range m.storage.rowShapes {
		out[f] = append([]int{-1}, s...)
	}
	return out
}

// Size returns the number of stored records.
func (m *RingReplay) Size() int {
	if m.storage == nil {
		return 0
	}
	return m.storage.size
}
