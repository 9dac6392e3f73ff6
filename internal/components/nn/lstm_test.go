package nn

import (
	"math"
	"testing"

	"rlgraph/internal/backend"
	"rlgraph/internal/component"
	"rlgraph/internal/components/optimizers"
	"rlgraph/internal/exec"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

func TestLSTMShapesBothBackends(t *testing.T) {
	for _, b := range exec.Backends() {
		l := NewLSTM("lstm", 6, 1)
		ct, err := exec.NewComponentTest(b, l.Component, exec.InputSpaces{
			"call": {spaces.NewFloatBox(5, 3).WithBatchRank()}, // [b, T=5, F=3]
			"step": {
				spaces.NewFloatBox(3).WithBatchRank(),
				spaces.NewFloatBox(6).WithBatchRank(),
				spaces.NewFloatBox(6).WithBatchRank(),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := ct.Test1("call", tensor.New(2, 5, 3))
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.SameShape(out.Shape(), []int{2, 6}) {
			t.Fatalf("%s: call out = %v", b, out.Shape())
		}
		outs, err := ct.Test("step", tensor.Ones(2, 3), tensor.New(2, 6), tensor.New(2, 6))
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != 3 || !tensor.SameShape(outs[1].Shape(), []int{2, 6}) {
			t.Fatalf("%s: step outs = %d", b, len(outs))
		}
	}
}

func TestLSTMBackendsAgree(t *testing.T) {
	x := tensor.Arange(0, 24).Reshape(2, 4, 3)
	var results []*tensor.Tensor
	for _, b := range exec.Backends() {
		l := NewLSTM("lstm", 4, 7)
		ct, err := exec.NewComponentTest(b, l.Component, exec.InputSpaces{
			"call": {spaces.NewFloatBox(4, 3).WithBatchRank()},
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := ct.Test1("call", x)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, out)
	}
	if !results[0].Equal(results[1]) {
		t.Fatal("LSTM backends disagree")
	}
}

func TestLSTMStepMatchesUnroll(t *testing.T) {
	// Manually stepping T times from zero state must equal call() on the
	// same sequence.
	T, F, U := 3, 2, 4
	l := NewLSTM("lstm", U, 3)
	ct, err := exec.NewComponentTest("define-by-run", l.Component, exec.InputSpaces{
		"call": {spaces.NewFloatBox(T, F).WithBatchRank()},
		"step": {
			spaces.NewFloatBox(F).WithBatchRank(),
			spaces.NewFloatBox(U).WithBatchRank(),
			spaces.NewFloatBox(U).WithBatchRank(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := tensor.Arange(0, T*F).Reshape(1, T, F)
	want, err := ct.Test1("call", seq)
	if err != nil {
		t.Fatal(err)
	}
	h := tensor.New(1, U)
	c := tensor.New(1, U)
	for step := 0; step < T; step++ {
		xt := tensor.SliceCols(seq.Reshape(1, T*F), step*F, (step+1)*F)
		outs, err := ct.Test("step", xt, h, c)
		if err != nil {
			t.Fatal(err)
		}
		h, c = outs[1], outs[2]
	}
	if !h.AllClose(want, 1e-12) {
		t.Fatalf("step chain %v != unroll %v", h, want)
	}
}

// lstmRegressor wires LSTM + readout + optimizer to learn a memory task:
// predict the FIRST element of the sequence from the LAST hidden state —
// only solvable when gradients flow through all unrolled steps (BPTT).
type lstmRegressor struct {
	*component.Component
	lstm *LSTM
	head *Dense
	opt  *optimizers.Optimizer
}

func newLSTMRegressor() *lstmRegressor {
	r := &lstmRegressor{Component: component.New("reg")}
	r.lstm = NewLSTM("lstm", 8, 5)
	r.head = NewDense("head", 1, "", 6)
	r.AddSub(r.lstm.Component)
	r.AddSub(r.head.Component)
	opt, err := optimizers.New("opt", optimizers.Config{Type: "adam", LearningRate: 0.02},
		func() []*vars.Variable {
			all := vars.NewStore()
			for _, v := range r.lstm.AllVariables().All() {
				all.Add(v)
			}
			for _, v := range r.head.AllVariables().All() {
				all.Add(v)
			}
			return all.Trainable()
		})
	if err != nil {
		panic(err)
	}
	r.opt = opt
	r.AddSub(r.opt.Component)
	r.DefineAPI("train", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		hidden := r.lstm.Call(ctx, "call", in[0])
		pred := r.head.Call(ctx, "call", hidden...)
		loss := r.GraphFn(ctx, "mse", 1, func(ops backend.Ops, refs []backend.Ref) []backend.Ref {
			diff := ops.Sub(ops.Reshape(refs[0], -1), refs[1])
			return []backend.Ref{ops.Mean(ops.Square(diff))}
		}, pred[0], in[1])
		norm := r.opt.Call(ctx, "step", loss[0])
		// The optimizer's output must be part of the API result so the
		// static executor fetches (and thereby applies) the updates.
		return []*component.Rec{loss[0], norm[0]}
	})
	return r
}

func TestLSTMLearnsToRememberFirstInput(t *testing.T) {
	r := newLSTMRegressor()
	T := 5
	ct, err := exec.NewComponentTest("static", r.Component, exec.InputSpaces{
		"train": {
			spaces.NewFloatBox(T, 1).WithBatchRank(),
			spaces.NewFloatBox().WithBatchRank(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic dataset: first element ±1, rest noise-ish values.
	n := 16
	x := tensor.New(n, T, 1)
	y := tensor.New(n)
	for i := 0; i < n; i++ {
		v := 1.0
		if i%2 == 0 {
			v = -1
		}
		x.Data()[i*T] = v
		for s := 1; s < T; s++ {
			x.Data()[i*T+s] = 0.1 * float64((i+s)%3)
		}
		y.Data()[i] = v
	}
	var first, last float64
	for it := 0; it < 150; it++ {
		outs, err := ct.Test("train", x, y)
		if err != nil {
			t.Fatal(err)
		}
		if it == 0 {
			first = outs[0].Item()
		}
		last = outs[0].Item()
	}
	if math.IsNaN(last) || last > first*0.1 {
		t.Fatalf("BPTT did not learn: loss %g → %g", first, last)
	}
}
