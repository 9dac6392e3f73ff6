package graph

import "fmt"

// Gradients builds a gradient sub-graph computing d loss / d wrt[i] for each
// node in wrt, using reverse-mode accumulation over the existing graph
// (graph-to-graph differentiation, as TensorFlow does). loss must be a
// scalar-valued node. Nodes in wrt that loss does not depend on receive a
// ZerosLike gradient. An eager graph needs to record its nodes; on a build
// pass (NewBuildPass) every gradient is a ZerosLike, without autodiff.
func Gradients(g *Graph, loss *Node, wrt []*Node) []*Node {
	out := make([]*Node, len(wrt))
	if g.build {
		for i, w := range wrt {
			out[i] = ZerosLike(g, w)
		}
		return out
	}
	if g.eager && !g.record {
		panic("graph: Gradients on an eager graph that does not record")
	}
	// Topologically order the sub-graph reachable from loss.
	order := topoSort(loss)
	reachable := make(map[*Node]bool, len(order))
	for _, n := range order {
		reachable[n] = true
	}

	grads := make(map[*Node]*Node)
	grads[loss] = OnesLike(g, loss)

	// Walk in reverse topological order, pushing gradients to inputs.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		gy, ok := grads[n]
		if !ok {
			continue // loss does not depend on n through any diff path
		}
		gop, ok := n.op.(GradOp)
		if !ok {
			continue
		}
		igs := gop.Grad(g, n, gy)
		if igs == nil {
			continue
		}
		if len(igs) != len(n.inputs) {
			panic(fmt.Sprintf("graph: %s.Grad returned %d grads for %d inputs",
				n.op.Name(), len(igs), len(n.inputs)))
		}
		for j, ig := range igs {
			if ig == nil {
				continue
			}
			in := n.inputs[j]
			if prev, ok := grads[in]; ok {
				grads[in] = Add(g, prev, ig)
			} else {
				grads[in] = ig
			}
		}
	}

	for i, w := range wrt {
		if gr, ok := grads[w]; ok && reachable[w] {
			out[i] = gr
		} else {
			out[i] = ZerosLike(g, w)
		}
	}
	return out
}

// topoSort returns nodes reachable from root in topological order (inputs
// before consumers). Control dependencies are not part of the differentiable
// dataflow and are ignored here.
func topoSort(root *Node) []*Node {
	var order []*Node
	state := make(map[*Node]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(n *Node)
	visit = func(n *Node) {
		switch state[n] {
		case 1:
			panic("graph: cycle detected")
		case 2:
			return
		}
		state[n] = 1
		for _, in := range n.inputs {
			visit(in)
		}
		state[n] = 2
		order = append(order, n)
	}
	visit(root)
	return order
}
