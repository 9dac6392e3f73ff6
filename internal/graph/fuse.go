package graph

import "rlgraph/internal/tensor"

// Elementwise fusion pass.
//
// After the plan compiler emits its step list, fuseSteps pattern-matches
// short elementwise chains and collapses each into a single step with a
// specialized evaluator, eliminating the intermediate tensor and one pass
// over memory:
//
//	Add(a, Scale(b,s))            -> AddScaled       (loss mixes, gradient sums)
//	Add(Mul(a,b), c)              -> AddMul
//	Add(a, Mul(b,c))              -> MulAdd          (residual adds)
//	Mul(gy, ReluMask(x))          -> ReluBackward    (relu backprop)
//	Sum(Square(x))                -> SumSquares      (gradient norms, L2 losses)
//
// A producer step may be absorbed only when its output is consumed solely by
// the candidate consumer (use count 1 over all step inputs), is neither
// fetched nor fed, sits on the same device as the consumer, is not the target
// of any control dependency in the plan, and is itself an unfused plain step.
// The fused evaluators call the tensor package's fused kernels, which perform
// the exact rounding sequence of the unfused chain (see tensor/fused.go), so
// fused plans are bit-for-bit identical to unfused and recursive execution.
// When runtime operand shapes differ (broadcasting), the evaluators fall back
// to the original op composition.
//
// Absorbed nodes still count toward NodesEvaluated and the per-device tallies
// (a fused step reports 1+len(step.fused) evaluations), so profiling counters
// are independent of whether fusion is enabled.

// stepEval is a specialized evaluator installed on a fused step.
type stepEval func(ctx *RunCtx, ins []*tensor.Tensor) (*tensor.Tensor, error)

// scaleParam returns the compile-time factor of a Scale node.
func scaleParam(n *Node) (float64, bool) {
	if o, ok := n.op.(*unOp); ok && o.name == "Scale" {
		return o.sval, true
	}
	return 0, false
}

func isOpNamed(n *Node, name string) bool {
	switch o := n.op.(type) {
	case *binOp:
		return o.name == name
	case *unOp:
		return o.name == name
	}
	return false
}

// fuseSteps rewrites p.steps in place, absorbing eligible producers into
// fused consumer steps. It must run after slots and fetchSlots are assigned
// and before the scheduler edge lists and liveness analysis are built.
func (p *Plan) fuseSteps() {
	if len(p.steps) < 2 {
		return
	}
	use := make([]int32, p.nslots)
	for _, s := range p.insSlots {
		use[s]++
	}
	pinned := make([]bool, p.nslots)
	for _, s := range p.fetchSlots {
		pinned[s] = true
	}
	for _, fb := range p.feeds {
		pinned[fb.slot] = true
	}
	depTarget := map[*Node]bool{}
	for i := range p.steps {
		for _, d := range p.steps[i].node.deps {
			depTarget[d] = true
		}
	}
	stepOfSlot := make([]int32, p.nslots)
	for i := range stepOfSlot {
		stepOfSlot[i] = -1
	}
	for i := range p.steps {
		stepOfSlot[p.steps[i].out] = int32(i)
	}

	consumed := make([]bool, len(p.steps))

	// absorbable reports whether the producer of slot s can be folded into
	// consumer step ci, returning its step index.
	absorbable := func(s int32, ci int) (int32, bool) {
		pi := stepOfSlot[s]
		if pi < 0 || consumed[pi] {
			return 0, false
		}
		st := &p.steps[pi]
		if st.eval != nil { // already a fusion consumer
			return 0, false
		}
		if use[s] != 1 || pinned[s] {
			return 0, false
		}
		if st.node.device != p.steps[ci].node.device {
			return 0, false
		}
		if depTarget[st.node] {
			return 0, false
		}
		return pi, true
	}

	for i := range p.steps {
		st := &p.steps[i]
		if st.eval != nil || consumed[i] {
			continue
		}
		singleIn := func(pi int32) int32 { return p.insSlots[p.steps[pi].insOff] }
		if so, ok := st.node.op.(*sumOp); ok && !so.mean {
			if p0, ok := absorbable(p.insSlots[st.insOff], i); ok && isOpNamed(p.steps[p0].node, "Square") {
				// Sum(Square(x)) -> SumSquares.
				st.eval = func(ctx *RunCtx, ins []*tensor.Tensor) (*tensor.Tensor, error) {
					out := ctx.NewTensor()
					out.Data()[0] = tensor.SumSquares(ins[0])
					return out, nil
				}
				p.rewriteStep(i, []int32{singleIn(p0)}, consumed, p0)
			}
			continue
		}
		bo, ok := st.node.op.(*binOp)
		if !ok || st.insLen != 2 {
			continue
		}
		in0, in1 := p.insSlots[st.insOff], p.insSlots[st.insOff+1]
		pairIn := func(pi int32) (int32, int32) {
			off := p.steps[pi].insOff
			return p.insSlots[off], p.insSlots[off+1]
		}

		switch bo.name {
		case "Add":
			p0, ok0 := absorbable(in0, i)
			p1, ok1 := absorbable(in1, i)
			s1, isScale1 := float64(0), false
			if ok1 {
				s1, isScale1 = scaleParam(p.steps[p1].node)
			}
			switch {
			case isScale1:
				// Add(a, Scale(b,s)) -> AddScaled.
				b, s := singleIn(p1), s1
				st.eval = func(ctx *RunCtx, ins []*tensor.Tensor) (*tensor.Tensor, error) {
					a, b := ins[0], ins[1]
					if tensor.SameShape(a.Shape(), b.Shape()) {
						return tensor.AddScaledInto(ctx.NewTensor(a.Shape()...), a, b, s), nil
					}
					return tensor.Add(a, tensor.Scale(b, s)), nil
				}
				p.rewriteStep(i, []int32{in0, b}, consumed, p1)
			case ok1 && isOpNamed(p.steps[p1].node, "Mul") && p.steps[p1].insLen == 2:
				// Add(a, Mul(b,c)) -> MulAdd.
				b, c := pairIn(p1)
				st.eval = func(ctx *RunCtx, ins []*tensor.Tensor) (*tensor.Tensor, error) {
					a, b, c := ins[0], ins[1], ins[2]
					if tensor.SameShape(a.Shape(), b.Shape()) && tensor.SameShape(b.Shape(), c.Shape()) {
						return tensor.MulAddInto(ctx.NewTensor(a.Shape()...), a, b, c), nil
					}
					return tensor.Add(a, tensor.Mul(b, c)), nil
				}
				p.rewriteStep(i, []int32{in0, b, c}, consumed, p1)
			case ok0 && isOpNamed(p.steps[p0].node, "Mul") && p.steps[p0].insLen == 2:
				// Add(Mul(a,b), c) -> AddMul.
				a, b := pairIn(p0)
				st.eval = func(ctx *RunCtx, ins []*tensor.Tensor) (*tensor.Tensor, error) {
					a, b, c := ins[0], ins[1], ins[2]
					if tensor.SameShape(a.Shape(), b.Shape()) && tensor.SameShape(b.Shape(), c.Shape()) {
						return tensor.AddMulInto(ctx.NewTensor(a.Shape()...), a, b, c), nil
					}
					return tensor.Add(tensor.Mul(a, b), c), nil
				}
				p.rewriteStep(i, []int32{a, b, in1}, consumed, p0)
			}
		case "Mul":
			if p1, ok := absorbable(in1, i); ok && isOpNamed(p.steps[p1].node, "ReluMask") {
				// Mul(gy, ReluMask(x)) -> ReluBackward.
				x := singleIn(p1)
				st.eval = func(ctx *RunCtx, ins []*tensor.Tensor) (*tensor.Tensor, error) {
					gy, x := ins[0], ins[1]
					if tensor.SameShape(gy.Shape(), x.Shape()) {
						return tensor.ReluBackwardInto(ctx.NewTensor(gy.Shape()...), gy, x), nil
					}
					return tensor.Mul(gy, tensor.ReluGrad(x)), nil
				}
				p.rewriteStep(i, []int32{in0, x}, consumed, p1)
			}
		}
	}

	// Compact: drop consumed steps and rebuild the insSlots arena.
	newSteps := p.steps[:0]
	newIns := make([]int32, 0, len(p.insSlots))
	for i := range p.steps {
		if consumed[i] {
			continue
		}
		st := p.steps[i]
		off := int32(len(newIns))
		newIns = append(newIns, p.insSlots[st.insOff:st.insOff+st.insLen]...)
		st.insOff = off
		newSteps = append(newSteps, st)
	}
	p.steps = newSteps
	p.insSlots = newIns
}

// rewriteStep replaces step i's inputs with ins and marks the producer steps
// absorbed, recording their nodes for evaluation counting.
func (p *Plan) rewriteStep(i int, ins []int32, consumed []bool, producers ...int32) {
	st := &p.steps[i]
	// Stash the new input list at the end of the arena; compaction rebuilds
	// the arena densely afterwards.
	st.insOff = int32(len(p.insSlots))
	st.insLen = int32(len(ins))
	p.insSlots = append(p.insSlots, ins...)
	for _, pi := range producers {
		consumed[pi] = true
		st.fused = append(st.fused, p.steps[pi].node)
	}
}
