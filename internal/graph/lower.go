package graph

import (
	"sync/atomic"

	"rlgraph/internal/tensor"
)

// Dtype-lowered plan execution (see DESIGN.md §5.12).
//
// A session whose dtype is tensor.Float32 runs its compiled plans on the
// float32 kernel variants: feeds are converted once at the Run boundary into
// per-plan staging buffers, weights and constants are converted once per
// value (cached on the plan, keyed by the float64 tensor pointer and the
// variable's write generation, so both a serve.Barrier weight swap and an
// in-place optimizer update invalidate the cache), the hot ops
// (matmul, conv forward, flat elementwise, fused chains) run on float32
// storage, and fetches are converted back to float64 before the caller sees
// them. The public API therefore stays float64 end to end — lowering is an
// execution strategy of the plan executors, exactly the kind of backend swap
// the component/build separation is meant to allow.
//
// Ops without a float32 kernel run through a generic fallback: float32 inputs
// are converted to float64, the op's ordinary Eval runs, and the result is
// converted back to float32. That keeps every op correct under lowering at
// the cost of two conversions; the fallback set (reductions, gathers,
// stateful host ops) is far from the bandwidth-bound loops the lowering
// targets. The float64 path is untouched: with the default dtype, plan
// execution never consults any of this.

// suffixShape reports whether small broadcasts against big purely by tiling:
// after stripping leading 1-dims, small's shape must be a suffix of big's.
// Scalars (rank 0 or all-ones shapes) trivially qualify.
func suffixShape(big, small []int) bool {
	for len(small) > 0 && small[0] == 1 {
		small = small[1:]
	}
	if len(small) > len(big) {
		return false
	}
	off := len(big) - len(small)
	for i, d := range small {
		if big[off+i] != d {
			return false
		}
	}
	return true
}

// NewTensor32 is NewTensor for float32 outputs on the lowered execution path,
// drawing from the arena's float32 bucket arm when one is attached.
func (c *RunCtx) NewTensor32(shape ...int) *tensor.Tensor {
	if c == nil || c.arena == nil {
		return tensor.New32(shape...)
	}
	return c.arena.Get32(shape...)
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

// lowKind classifies how one plan step executes under lowering.
type lowKind uint8

const (
	// lowFallback converts float32 inputs to float64, runs the op's plain
	// Eval, and converts the result back.
	lowFallback lowKind = iota
	lowBin              // binOp with a flat32 kernel
	lowUn               // unOp with a flat32 kernel
	lowMatMul           // matmulOp on the float32 blocked core
	lowConv             // conv2dOp forward on the float32 im2col pipeline
	lowShared           // constOp / varReadOp: pointer-cached conversion
	lowAlias            // pure aliasing ops: Eval is dtype-agnostic
	lowZeros            // zerosLikeOp: allocate float32 directly
	lowGroup            // groupOp: inputs already forced; yield a f32 scalar
)

// lowStep is the lowered execution info for one plan step.
type lowStep struct {
	kind lowKind
	// weight caches the float32 conversion of a lowShared step's value. The
	// cache key is the float64 tensor pointer plus the variable's write
	// generation: a weight swap installs a new tensor (vars.Variable.Set
	// clones) and gradient application bumps the generation, so either
	// invalidates the entry and the next lowered run reconverts. Reads are
	// lock-free; a racing double-conversion is harmless.
	weight atomic.Pointer[lowWeight]
}

type lowWeight struct {
	src *tensor.Tensor // float64 value the conversion was taken from
	gen uint64         // the variable's write generation at conversion (0 for constants)
	val *tensor.Tensor // its float32 conversion (shared, never recycled)
}

// loweredSteps lazily builds the per-step lowering classification. The
// classification is dtype-independent (it only records which kernel each step
// could use), so it is computed once per plan regardless of later SetDType
// toggling.
func (p *Plan) loweredSteps() []lowStep {
	p.lowOnce.Do(func() {
		ls := make([]lowStep, len(p.steps))
		for i := range p.steps {
			st := &p.steps[i]
			if st.eval != nil {
				continue // fused step: eval32 (or composed fallback) handles it
			}
			switch op := st.node.op.(type) {
			case *binOp:
				if op.flat32 != nil {
					ls[i].kind = lowBin
				}
			case *unOp:
				if op.flat32 != nil {
					ls[i].kind = lowUn
				}
			case *matmulOp:
				ls[i].kind = lowMatMul
			case *conv2dOp:
				ls[i].kind = lowConv
			case *constOp, *varReadOp:
				ls[i].kind = lowShared
			case identityOp:
				ls[i].kind = lowAlias
			case reshapeLikeOp:
				ls[i].kind = lowAlias
			case zerosLikeOp:
				ls[i].kind = lowZeros
			case groupOp:
				ls[i].kind = lowGroup
			}
		}
		p.low = ls
	})
	return p.low
}

// evalLowered executes step i of a lowered run. ins is the step's input
// scratch (disjoint per step, refilled every run), so the fallback may
// overwrite entries with converted copies.
func (p *Plan) evalLowered(ctx *RunCtx, low []lowStep, i int, st *step, ins []*tensor.Tensor) (*tensor.Tensor, error) {
	if st.eval != nil {
		if st.eval32 != nil {
			return st.eval32(ctx, ins)
		}
		return p.lowFallbackEval(ctx, st, ins, st.eval, true)
	}
	ls := &low[i]
	switch ls.kind {
	case lowBin:
		op := st.node.op.(*binOp)
		a, b := ins[0], ins[1]
		if tensor.SameShape(a.Shape(), b.Shape()) {
			out := ctx.NewTensor32(a.Shape()...)
			op.flat32(out.Data32(), a.Data32(), b.Data32())
			return out, nil
		}
		if n := b.Size(); n > 0 && suffixShape(a.Shape(), b.Shape()) {
			out := ctx.NewTensor32(a.Shape()...)
			od, ad, bd := out.Data32(), a.Data32(), b.Data32()
			for r := 0; r+n <= len(od); r += n {
				op.flat32(od[r:r+n], ad[r:r+n], bd)
			}
			return out, nil
		}
		if n := a.Size(); n > 0 && suffixShape(b.Shape(), a.Shape()) {
			out := ctx.NewTensor32(b.Shape()...)
			od, ad, bd := out.Data32(), a.Data32(), b.Data32()
			for r := 0; r+n <= len(od); r += n {
				op.flat32(od[r:r+n], ad, bd[r:r+n])
			}
			return out, nil
		}
		return p.lowFallbackEval(ctx, st, ins, nil, false)
	case lowUn:
		op := st.node.op.(*unOp)
		out := ctx.NewTensor32(ins[0].Shape()...)
		op.flat32(out.Data32(), ins[0].Data32())
		return out, nil
	case lowMatMul:
		op := st.node.op.(*matmulOp)
		a, b := ins[0], ins[1]
		switch {
		case op.transA:
			return tensor.MatMulTransA32Into(ctx.NewTensor32(a.Dim(1), b.Dim(1)), a, b), nil
		case op.transB:
			return tensor.MatMulTransB32Into(ctx.NewTensor32(a.Dim(0), b.Dim(0)), a, b), nil
		default:
			return tensor.MatMul32Into(ctx.NewTensor32(a.Dim(0), b.Dim(1)), a, b), nil
		}
	case lowConv:
		op := st.node.op.(*conv2dOp)
		return tensor.Conv2D32(ins[0], ins[1], op.params), nil
	case lowShared:
		var cur *tensor.Tensor
		var gen uint64
		switch op := st.node.op.(type) {
		case *constOp:
			cur = op.val
		case *varReadOp:
			cur, gen = op.v.Val, op.v.Generation()
		}
		if w := ls.weight.Load(); w != nil && w.src == cur && w.gen == gen {
			return w.val, nil
		}
		val := tensor.ToFloat32(cur)
		ls.weight.Store(&lowWeight{src: cur, gen: gen, val: val})
		return val, nil
	case lowAlias:
		return st.node.op.Eval(ctx, ins)
	case lowZeros:
		return ctx.NewTensor32(ins[0].Shape()...), nil
	case lowGroup:
		return ctx.NewTensor32(), nil // rank-0 zero, the f32 twin of groupOp.Eval
	default:
		return p.lowFallbackEval(ctx, st, ins, nil, false)
	}
}

// lowFallbackEval is the generic lowering path: float32 inputs are converted
// to float64 (in place in the step's input scratch), the ordinary evaluator
// runs, and the result is converted to float32. For value-semantics ops —
// which neither retain inputs nor alias them in the output — the temporary
// float64 conversions and the op's fresh float64 result are recycled through
// the run arena.
func (p *Plan) lowFallbackEval(ctx *RunCtx, st *step, ins []*tensor.Tensor, fused stepEval, fusedVS bool) (*tensor.Tensor, error) {
	vs := fusedVS
	if !vs {
		_, vs = st.node.op.(ValueSemanticsOp)
	}
	var converted uint64
	for k, in := range ins {
		if in != nil && in.Dtype() == tensor.Float32 {
			c := ctx.NewTensor(in.Shape()...)
			tensor.ConvertInto(c, in)
			ins[k] = c
			if k < 64 {
				converted |= 1 << uint(k)
			}
		}
	}
	var v *tensor.Tensor
	var err error
	if fused != nil {
		v, err = fused(ctx, ins)
	} else {
		v, err = st.node.op.Eval(ctx, ins)
	}
	if err != nil {
		return nil, err
	}
	if vs && ctx.arena != nil {
		for k := range ins {
			if k < 64 && converted&(1<<uint(k)) != 0 {
				ctx.arena.Put(ins[k])
				ins[k] = nil
			}
		}
	}
	if v.Dtype() == tensor.Float32 {
		return v, nil
	}
	out := ctx.NewTensor32(v.Shape()...)
	tensor.ConvertInto(out, v)
	if vs && ctx.arena != nil {
		ctx.arena.Put(v)
	}
	return out, nil
}

// lowCompose is the broadcast fallback of the lowered fused evaluators:
// convert float32 operands to float64, apply the composed float64 expression,
// convert the result back.
func lowCompose(ctx *RunCtx, ins []*tensor.Tensor, f func([]*tensor.Tensor) *tensor.Tensor) *tensor.Tensor {
	conv := make([]*tensor.Tensor, len(ins))
	for i, in := range ins {
		if in.Dtype() == tensor.Float32 {
			conv[i] = tensor.ToFloat64(in)
		} else {
			conv[i] = in
		}
	}
	v := f(conv)
	out := ctx.NewTensor32(v.Shape()...)
	tensor.ConvertInto(out, v)
	return out
}
