package tensor

import (
	"fmt"
	"math"
)

// Fused optimizer updates: one pass per variable that reads the gradient,
// updates the rule's slot tensors and the weights in place, and applies the
// global-norm clip factor as a scalar operand. Both backends call
// UpdateRule.Apply, so static and define-by-run training stay bit-identical
// by construction.
//
// Every loop performs exactly the rounding sequence of the elementwise
// composition it replaces (written out beside each kernel; the explicit
// float64 conversions forbid fused multiply-adds), so a trajectory matches
// the composed ops bit for bit — until a slot entry decays below
// slotFlushBelow, where the composition keeps computing on subnormals and
// this kernel stores an exact zero.

// slotFlushBelow is the magnitude under which a freshly computed slot entry
// is stored as 0. A moment that stops receiving gradient decays geometrically
// (0.9^t reaches 1e-308 after ~6 700 steps) and then sticks at the smallest
// subnormal forever, because 0.9·2^-1074 rounds back to 2^-1074; every
// multiply, divide and add that touches a subnormal takes a microcoded slow
// path costing ~100 cycles. 1e-150 sits ~158 decades above the subnormal
// boundary (2.2e-308), so products with the decay, bias-correction and
// learning-rate scalars stay normal too, and ~135 decades below the smallest
// slot value that can move a weight bit (an update of 1e-150·lr/ε changes w
// only if |w| < 1e-126).
const slotFlushBelow = 1e-150

func flushSlot(x float64) float64 {
	if x < slotFlushBelow && x > -slotFlushBelow {
		return 0
	}
	return x
}

// UpdateKind selects a gradient-descent rule. The zero value selects none.
type UpdateKind uint8

const (
	// UpdateRMSProp is v = β2·v + (1-β2)·g²; w -= lr·g/sqrt(v+ε).
	UpdateRMSProp UpdateKind = iota + 1
	// UpdateAdam is m = β1·m + (1-β1)·g; v = β2·v + (1-β2)·g²;
	// w -= lr·m·c/(sqrt(v)+ε) with c = sqrt(1-β2^t)/(1-β1^t).
	UpdateAdam
)

// UpdateRule holds the hyperparameters of one optimizer. It is immutable
// after construction and shared by every variable the optimizer updates.
type UpdateRule struct {
	Kind UpdateKind
	// LR is the step size.
	LR float64
	// Beta1 decays the first-moment slot (Adam's β1); Beta2 decays the
	// second-moment slot (RMSProp's ρ, Adam's β2).
	Beta1, Beta2 float64
	// Epsilon stabilizes the divisions of RMSProp and Adam.
	Epsilon float64
	// MaxGradNorm > 0 scales every gradient by min(1, MaxGradNorm/(norm+1e-12)),
	// norm being the global gradient norm handed to Apply.
	MaxGradNorm float64
}

// UpdateState is one variable's optimizer state: the slot tensors the rule
// needs (nil otherwise) and the number of updates applied so far. Apply
// mutates the slots in place; nothing else may alias them.
type UpdateState struct {
	// M is the first-moment slot (Adam); V the second-moment slot (RMSProp,
	// Adam).
	M, V *Tensor
	// Steps counts applied updates; Adam's bias correction reads it.
	Steps int
}

// NewState returns zeroed state for a variable of the given shape.
func (r *UpdateRule) NewState(shape ...int) *UpdateState {
	st := &UpdateState{V: New(shape...)}
	if r.Kind == UpdateAdam {
		st.M = New(shape...)
	}
	return st
}

// applyParallelFloor is the element count from which Apply forks, in chunks
// of applyChunk elements; every element is updated independently, so the
// chunking never changes results.
const (
	applyParallelFloor = 1 << 16
	applyChunk         = 1 << 14
)

// Apply performs one update of w in place from gradient g, advancing st.
// norm is the global gradient norm (only read when the rule clips). w, g and
// the slots must be tensors of one shape; g is not modified and must
// not alias w or a slot.
func (r *UpdateRule) Apply(w *Tensor, st *UpdateState, g *Tensor, norm float64) {
	if !SameShape(w.shape, g.shape) {
		panic(fmt.Sprintf("tensor: UpdateRule.Apply gradient shape %v vs variable %v", g.shape, w.shape))
	}
	scale := r.clipScale(norm)
	st.Steps++
	n := len(w.data)
	if n < applyParallelFloor || KernelParallelism() == 1 {
		r.apply(w, st, g, scale, 0, n)
		return
	}
	parallelFor((n+applyChunk-1)/applyChunk, func(c int) {
		r.apply(w, st, g, scale, c*applyChunk, min((c+1)*applyChunk, n))
	})
}

// clipScale is the factor every gradient element is multiplied by:
// min(1, MaxGradNorm/(norm+1e-12)) when the rule clips, 1 otherwise.
func (r *UpdateRule) clipScale(norm float64) float64 {
	if r.MaxGradNorm > 0 {
		return math.Min(1, r.MaxGradNorm/(norm+1e-12))
	}
	return 1
}

// apply updates elements [i0, i1) of w and the slots.
func (r *UpdateRule) apply(w *Tensor, st *UpdateState, g *Tensor, scale float64, i0, i1 int) {
	wd, gd, nlr := w.data[i0:i1], g.data[i0:i1], -r.LR
	switch r.Kind {
	case UpdateRMSProp:
		// v' = Add(Scale(v, β2), Scale(Square(gs), 1-β2));
		// AddTo(w, Div(gs, Sqrt(AddScalar(v', ε))), -lr)
		vd, b2, omb2, eps := st.V.data[i0:i1], r.Beta2, 1-r.Beta2, r.Epsilon
		for i := range wd {
			gs := float64(gd[i] * scale)
			v := flushSlot(float64(vd[i]*b2) + float64(float64(gs*gs)*omb2))
			vd[i] = v
			wd[i] += float64(nlr * (gs / math.Sqrt(v+eps)))
		}
	case UpdateAdam:
		md, vd := st.M.data[i0:i1], st.V.data[i0:i1]
		s := r.adamStep(scale, st.Steps)
		v := vecLen(len(wd))
		for i := 0; i < v; i += adamCallElems {
			adamAVX2(&wd[i], &gd[i], &md[i], &vd[i], min(adamCallElems, v-i), s)
		}
		s.update(wd[v:], gd[v:], md[v:], vd[v:])
	default:
		panic(fmt.Sprintf("tensor: unknown update kind %d", r.Kind))
	}
}

// adamCallElems bounds the elements of one adamAVX2 call (~15 µs: the loop
// waits on the divider for each vector's square root and division).
const adamCallElems = 1 << 13

// adamStep holds the scalars of one Adam update; the field order is
// adamAVX2's frame layout.
type adamStep struct {
	scale, b1, omb1, b2, omb2, c, eps, nlr, thr float64
}

// adamStep returns the scalars of update number steps with clip factor
// scale. c is the bias correction sqrt(1-β2^t)/(1-β1^t).
func (r *UpdateRule) adamStep(scale float64, steps int) adamStep {
	t := float64(steps)
	return adamStep{
		scale: scale, b1: r.Beta1, omb1: 1 - r.Beta1, b2: r.Beta2, omb2: 1 - r.Beta2,
		c:   math.Sqrt(1-math.Pow(r.Beta2, t)) / (1 - math.Pow(r.Beta1, t)),
		eps: r.Epsilon, nlr: -r.LR, thr: slotFlushBelow,
	}
}

// update is the Adam loop in Go:
// m' = Add(Scale(m, β1), Scale(gs, 1-β1));
// v' = Add(Scale(v, β2), Scale(Square(gs), 1-β2));
// AddTo(w, Div(Mul(m', c), AddScalar(Sqrt(v'), ε)), -lr)
func (s adamStep) update(wd, gd, md, vd []float64) {
	gd, md, vd = gd[:len(wd)], md[:len(wd)], vd[:len(wd)]
	for i := range wd {
		gs := float64(gd[i] * s.scale)
		m := flushSlot(float64(md[i]*s.b1) + float64(gs*s.omb1))
		v := flushSlot(float64(vd[i]*s.b2) + float64(float64(gs*gs)*s.omb2))
		md[i], vd[i] = m, v
		wd[i] += float64(s.nlr * (float64(m*s.c) / (math.Sqrt(v) + s.eps)))
	}
}

// SumSquares returns Σ t[i]² accumulated in index order — the value of
// Sum(Square(t)) without materializing the squared tensor.
func SumSquares(t *Tensor) float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v * v)
	}
	return s
}
