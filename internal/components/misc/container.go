package misc

import (
	"fmt"

	"rlgraph/internal/component"
	"rlgraph/internal/graph"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// ContainerSplitter splits a flattened container record into its primitive
// leaves — the paper Fig. 3 splitter ("Use space-hints to auto-split/merge
// ... inputs and outputs"). A record of a Dict space travels between
// components as one [batch, totalWidth] tensor (leaves flattened and
// concatenated in Flatten order); the splitter recovers per-leaf tensors
// with their element shapes.
type ContainerSplitter struct {
	*component.Component

	space  spaces.Space
	leaves []spaces.LeafPath
	widths []int
	total  int
}

// NewContainerSplitter builds a splitter for a container space.
func NewContainerSplitter(name string, space spaces.Space) *ContainerSplitter {
	s := &ContainerSplitter{Component: component.New(name), space: space}
	s.leaves = spaces.Flatten(space)
	for _, l := range s.leaves {
		w := tensor.NumElems(l.Space.Shape())
		s.widths = append(s.widths, w)
		s.total += w
	}
	s.DefineAPI("split", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return s.GraphFn(ctx, "split", len(s.leaves), s.splitFn, in...)
	})
	return s
}

// LeafPaths lists the leaf paths in output order.
func (s *ContainerSplitter) LeafPaths() []string {
	out := make([]string, len(s.leaves))
	for i, l := range s.leaves {
		out[i] = l.Path
	}
	return out
}

func (s *ContainerSplitter) splitFn(g *graph.Graph, in []*graph.Node) []*graph.Node {
	shape := in[0].Shape()
	if got := shape[len(shape)-1]; got != s.total && got != -1 {
		panic(fmt.Sprintf("misc: splitter %q wants width %d, got %d", s.Name(), s.total, got))
	}
	out := make([]*graph.Node, len(s.leaves))
	off := 0
	for i, w := range s.widths {
		piece := graph.SliceCols(g, in[0], off, off+w)
		// Restore the leaf's element shape when it is not a flat vector.
		if es := s.leaves[i].Space.Shape(); len(es) > 1 {
			piece = graph.Reshape(g, piece, append([]int{-1}, es...)...)
		}
		out[i] = piece
		off += w
	}
	return out
}

// ContainerMerger is the inverse: it flattens and concatenates per-leaf
// records back into the single [batch, totalWidth] representation.
type ContainerMerger struct {
	*component.Component

	space  spaces.Space
	leaves []spaces.LeafPath
}

// NewContainerMerger builds a merger for a container space.
func NewContainerMerger(name string, space spaces.Space) *ContainerMerger {
	m := &ContainerMerger{Component: component.New(name), space: space}
	m.leaves = spaces.Flatten(space)
	m.DefineAPI("merge", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return m.GraphFn(ctx, "merge", 1, m.mergeFn, in...)
	})
	return m
}

func (m *ContainerMerger) mergeFn(g *graph.Graph, in []*graph.Node) []*graph.Node {
	if len(in) != len(m.leaves) {
		panic(fmt.Sprintf("misc: merger %q wants %d leaves, got %d", m.Name(), len(m.leaves), len(in)))
	}
	flat := make([]*graph.Node, len(in))
	for i, r := range in {
		flat[i] = graph.FlattenBatch(g, r)
	}
	return []*graph.Node{graph.Concat(g, -1, flat...)}
}

// FlattenContainerValue converts a spaces.Value (batched leaves) into the
// single flattened tensor representation the splitter consumes.
func FlattenContainerValue(space spaces.Space, v *spaces.Value) *tensor.Tensor {
	leaves := spaces.FlattenValue(space, v)
	flat := make([]*tensor.Tensor, len(leaves))
	for i, t := range leaves {
		flat[i] = t.Reshape(t.Dim(0), -1)
	}
	return tensor.Concat(1, flat...)
}
