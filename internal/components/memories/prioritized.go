package memories

import (
	"fmt"
	"math"
	"math/rand"

	"rlgraph/internal/component"
	"rlgraph/internal/graph"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// PrioritizedReplay implements proportional prioritized experience replay
// (Schaul et al.; Horgan et al. for the distributed Ape-X variant): records
// are sampled with probability p_i^α / Σp^α and weighted by importance
// weights (N·P(i))^-β normalized by the maximum weight. Priority order is
// maintained by sum/min segment-tree sub-components — the memory component
// of the paper's Fig. 2 with its three API methods.
//
// API methods:
//
//	insert(f0..fN-1)            -> size    // new records get max priority
//	insert_with_priorities(f0..fN-1, prio) -> size  // Ape-X worker-side priorities
//	sample(batch)               -> f0..fN-1, indices, weights
//	update(indices, priorities) -> ok
type PrioritizedReplay struct {
	*component.Component

	capacity  int
	numFields int
	alpha     float64
	beta      float64
	epsilon   float64
	rng       *rand.Rand

	storage *ringStorage
	sum     *SegmentTree
	min     *SegmentTree
	maxPrio float64

	// segTree is the nested sub-component handle (structure only; the trees
	// above are its state), mirroring Fig. 2's SegmentTree sub-component.
	segTree *component.Component
}

// NewPrioritizedReplay returns a prioritized memory with the usual α/β
// hyper-parameters.
func NewPrioritizedReplay(name string, capacity, numFields int, alpha, beta float64, seed int64) *PrioritizedReplay {
	m := &PrioritizedReplay{
		Component: component.New(name),
		capacity:  capacity,
		numFields: numFields,
		alpha:     alpha,
		beta:      beta,
		epsilon:   1e-6,
		rng:       rand.New(rand.NewSource(seed)),
		maxPrio:   1,
	}
	m.segTree = component.New("segment-tree")
	m.AddSub(m.segTree)
	m.SetImpl(m)
	m.SetVarCreatorFns("insert", "insert_with_priorities")

	m.DefineAPI("insert", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return m.GraphFn(ctx, "insert", 1, m.insertFn(false), in...)
	})
	m.DefineAPI("insert_with_priorities", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return m.GraphFn(ctx, "insert_with_priorities", 1, m.insertFn(true), in...)
	})
	m.DefineAPI("sample", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return m.GraphFn(ctx, "sample", m.numFields+2, m.sampleFn, in...)
	})
	m.DefineAPI("update", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return m.GraphFn(ctx, "update", 1, m.updateFn, in...)
	})
	return m
}

// CreateVariables allocates buffers and trees from the insert record spaces.
// Priority inputs (the trailing space of insert_with_priorities) are not
// part of the stored record.
func (m *PrioritizedReplay) CreateVariables(inSpaces []spaces.Space) error {
	if len(inSpaces) != m.numFields && len(inSpaces) != m.numFields+1 {
		return fmt.Errorf("memories: %q configured for %d fields, insert saw %d spaces",
			m.Name(), m.numFields, len(inSpaces))
	}
	m.storage = newRingStorage(m.capacity, fieldShapesFromSpaces(inSpaces[:m.numFields]))
	m.sum = NewSumTree(m.capacity)
	m.min = NewMinTree(m.capacity)
	return nil
}

func (m *PrioritizedReplay) insertFn(withPrios bool) component.GraphFn {
	return func(g *graph.Graph, in []*graph.Node) []*graph.Node {
		out := graph.Stateful(g, "PrioInsert", []int{}, func(ts []*tensor.Tensor) (*tensor.Tensor, error) {
			if m.storage == nil {
				return nil, fmt.Errorf("memories: %q used before buffers exist", m.Name())
			}
			fields := ts
			var prios *tensor.Tensor
			if withPrios {
				fields = ts[:m.numFields]
				prios = ts[m.numFields]
			}
			slots := m.storage.insertBatch(fields)
			for i, slot := range slots {
				p := m.maxPrio
				if prios != nil {
					p = prios.Data()[i] + m.epsilon
				}
				pa := math.Pow(p, m.alpha)
				m.sum.Set(slot, pa)
				m.min.Set(slot, pa)
				if p > m.maxPrio {
					m.maxPrio = p
				}
			}
			return tensor.Scalar(float64(m.storage.size)), nil
		}, in...)
		return []*graph.Node{out}
	}
}

func (m *PrioritizedReplay) sampleFn(g *graph.Graph, in []*graph.Node) []*graph.Node {
	shapes := m.sampleShapes()
	return graph.StatefulMulti(g, "PrioSample", shapes, func(ts []*tensor.Tensor) ([]*tensor.Tensor, error) {
		if m.storage == nil || m.storage.size == 0 {
			return nil, fmt.Errorf("memories: %q is empty", m.Name())
		}
		batch := int(ts[0].Item())
		total := m.sum.Reduce()
		slots := make([]int, batch)
		weights := make([]float64, batch)
		n := float64(m.storage.size)
		minP := m.min.Reduce() / total
		maxW := math.Pow(n*minP, -m.beta)
		for i := range slots {
			p := m.rng.Float64() * total
			slot := m.sum.FindPrefixSum(p)
			if slot >= m.storage.size {
				slot = m.storage.size - 1
			}
			slots[i] = slot
			prob := m.sum.Get(slot) / total
			weights[i] = math.Pow(n*prob, -m.beta) / maxW
		}
		out := make([]*tensor.Tensor, m.numFields+2)
		for f := 0; f < m.numFields; f++ {
			out[f] = m.storage.gather(f, slots)
		}
		idxT := make([]float64, batch)
		for i, s := range slots {
			idxT[i] = float64(s)
		}
		out[m.numFields] = tensor.FromSlice(idxT, batch)
		out[m.numFields+1] = tensor.FromSlice(weights, batch)
		return out, nil
	}, in...)
}

func (m *PrioritizedReplay) sampleShapes() [][]int {
	if m.storage == nil {
		panic(fmt.Sprintf("memories: %q sample built before insert — build the insert API first", m.Name()))
	}
	out := make([][]int, m.numFields+2)
	for f, s := range m.storage.rowShapes {
		out[f] = append([]int{-1}, s...)
	}
	out[m.numFields] = []int{-1}   // indices
	out[m.numFields+1] = []int{-1} // weights
	return out
}

func (m *PrioritizedReplay) updateFn(g *graph.Graph, in []*graph.Node) []*graph.Node {
	out := graph.Stateful(g, "PrioUpdate", []int{}, func(ts []*tensor.Tensor) (*tensor.Tensor, error) {
		idxs, prios := ts[0], ts[1]
		for i := 0; i < idxs.Size(); i++ {
			slot := int(idxs.Data()[i])
			p := math.Abs(prios.Data()[i]) + m.epsilon
			pa := math.Pow(p, m.alpha)
			m.sum.Set(slot, pa)
			m.min.Set(slot, pa)
			if p > m.maxPrio {
				m.maxPrio = p
			}
		}
		return tensor.Scalar(1), nil
	}, in...)
	return []*graph.Node{out}
}

// Size returns the number of stored records.
func (m *PrioritizedReplay) Size() int {
	if m.storage == nil {
		return 0
	}
	return m.storage.size
}
