package backend

import (
	"rlgraph/internal/graph"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// EagerOps implements Ops with define-by-run semantics: it emits the same
// nodes as StaticOps, into an eager graph that evaluates each one as it is
// created, so every call computes immediately on concrete tensors and both
// backends share one definition of every op, kernel and gradient rule. In
// ModeBuild, inputs are artificial zero tensors pushed through for
// shape/variable inference (the paper's PyTorch build strategy), stateful
// functions are skipped and optimizer updates are not applied. A pass that
// records its nodes supports Gradients; one that does not is the no-grad
// fast path, whose intermediates are freed as it goes.
type EagerOps struct {
	*StaticOps

	mode   Mode
	record bool
}

// NewEagerOps returns define-by-run Ops over a fresh eager graph; record says
// whether the pass keeps its nodes for Gradients.
func NewEagerOps(record bool, mode Mode) *EagerOps {
	return &EagerOps{StaticOps: NewStaticOps(graph.NewEager(record)), mode: mode, record: record}
}

// Name identifies the backend.
func (e *EagerOps) Name() string { return "define-by-run" }

// Eval returns the concrete tensor behind x.
func (e *EagerOps) Eval(x Ref) *tensor.Tensor { return n(x).Value() }

// zeros returns a zero tensor of shape, unknown dims as 1: the value a build
// pass substitutes for what it does not run.
func (e *EagerOps) zeros(shape []int) Ref {
	s := make([]int, len(shape))
	for i, d := range shape {
		if d < 0 {
			d = 1
		}
		s[i] = d
	}
	return e.Const(tensor.New(s...))
}

// Stateful runs fn immediately in ModeRun. In ModeBuild it is skipped and a
// zero tensor of the declared shape (unknown dims as 1) is returned, so
// artificial build inputs never touch component state.
func (e *EagerOps) Stateful(name string, outShape []int, fn StatefulFn, ins ...Ref) Ref {
	if e.mode == ModeBuild {
		return e.zeros(outShape)
	}
	return e.StaticOps.Stateful(name, outShape, fn, ins...)
}

// StatefulMulti runs fn immediately in ModeRun; in ModeBuild it returns zero
// tensors of the declared shapes without invoking fn.
func (e *EagerOps) StatefulMulti(name string, outShapes [][]int, fn StatefulMultiFn, ins ...Ref) []Ref {
	if e.mode != ModeBuild {
		return e.StaticOps.StatefulMulti(name, outShapes, fn, ins...)
	}
	out := make([]Ref, len(outShapes))
	for i, s := range outShapes {
		out[i] = e.zeros(s)
	}
	return out
}

// Gradients differentiates the nodes this pass recorded (graph.Gradients).
// During the build pass gradients are structural only: zero tensors shaped
// like the variables are returned without running autodiff.
func (e *EagerOps) Gradients(loss Ref, vsl []*vars.Variable) []Ref {
	if e.mode == ModeBuild {
		out := make([]Ref, len(vsl))
		for i, vr := range vsl {
			out[i] = e.zeros(vr.Val.Shape())
		}
		return out
	}
	if !e.record {
		panic("backend: Gradients on a no-grad define-by-run pass")
	}
	return e.StaticOps.Gradients(loss, vsl)
}

// ApplyUpdate applies the fused optimizer update immediately in ModeRun; the
// build pass skips it and passes norm through.
func (e *EagerOps) ApplyUpdate(vr *vars.Variable, rule *tensor.UpdateRule, st *tensor.UpdateState, grad, norm Ref) Ref {
	if e.mode == ModeBuild {
		return norm
	}
	return e.StaticOps.ApplyUpdate(vr, rule, st, grad, norm)
}
