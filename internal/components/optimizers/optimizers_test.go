package optimizers

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rlgraph/internal/backend"
	"rlgraph/internal/component"
	"rlgraph/internal/exec"
	"rlgraph/internal/graph"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// quadModel is a component with one weight vector and a quadratic loss
// |w - target|², minimized at w == target.
type quadModel struct {
	*component.Component
	w      *vars.Variable
	target []float64
	opt    *Optimizer
}

func newQuadModel(cfg Config, target []float64) *quadModel {
	m := &quadModel{Component: component.New("quad"), target: target}
	m.SetImpl(m)
	m.opt = mustNew("opt", cfg, func() []*vars.Variable { return []*vars.Variable{m.w} })
	m.AddSub(m.opt.Component)
	m.DefineAPI("update", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		loss := m.GraphFn(ctx, "loss", 1, func(ops backend.Ops, refs []backend.Ref) []backend.Ref {
			w := ops.VarRead(m.w)
			tgt := ops.Const(tensor.FromSlice(append([]float64(nil), m.target...), len(m.target)))
			return []backend.Ref{ops.Sum(ops.Square(ops.Sub(w, tgt)))}
		})
		norm := m.opt.Call(ctx, "step", loss...)
		return append(loss, norm...)
	})
	return m
}

func (m *quadModel) CreateVariables(_ backend.Ops, _ []spaces.Space) error {
	m.w = m.AddVariable(vars.New("w", tensor.New(len(m.target))))
	return nil
}

// converges reports whether repeated updates drive w to target.
func converges(t *testing.T, backendName string, cfg Config, steps int, tol float64) float64 {
	t.Helper()
	target := []float64{1.5, -2.0, 0.5}
	m := newQuadModel(cfg, target)
	ct, err := exec.NewComponentTest(backendName, m.Component, exec.InputSpaces{
		"update": {},
	})
	if err != nil {
		t.Fatal(err)
	}
	var lastLoss float64
	for i := 0; i < steps; i++ {
		outs, err := ct.Test("update")
		if err != nil {
			t.Fatal(err)
		}
		lastLoss = outs[0].Item()
	}
	for i, v := range m.w.Val.Data() {
		if math.Abs(v-target[i]) > tol {
			t.Fatalf("%s/%s: w[%d] = %g, want %g (loss %g)",
				backendName, cfg.Type, i, v, target[i], lastLoss)
		}
	}
	return lastLoss
}

func TestRMSPropConverges(t *testing.T) {
	converges(t, "static", Config{Type: "rmsprop", LearningRate: 0.05}, 400, 1e-2)
	converges(t, "define-by-run", Config{Type: "rmsprop", LearningRate: 0.05}, 400, 1e-2)
}

func TestAdamConverges(t *testing.T) {
	converges(t, "static", Config{Type: "adam", LearningRate: 0.1}, 400, 1e-2)
	converges(t, "define-by-run", Config{Type: "adam", LearningRate: 0.1}, 400, 1e-2)
}

func TestBackendsProduceIdenticalTrajectories(t *testing.T) {
	// Deterministic quadratic: both backends must produce identical weights
	// after the same number of Adam steps.
	target := []float64{1, 2, 3}
	weights := make([][]float64, 0, 2)
	for _, b := range exec.Backends() {
		m := newQuadModel(Config{Type: "adam", LearningRate: 0.05}, target)
		ct, err := exec.NewComponentTest(b, m.Component, exec.InputSpaces{"update": {}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			if _, err := ct.Test("update"); err != nil {
				t.Fatal(err)
			}
		}
		weights = append(weights, append([]float64(nil), m.w.Val.Data()...))
	}
	for i := range weights[0] {
		if weights[0][i] != weights[1][i] {
			t.Fatalf("trajectory diverges at w[%d]: %g vs %g", i, weights[0][i], weights[1][i])
		}
	}
}

func TestGradientClippingBoundsNorm(t *testing.T) {
	// With a faraway target, the unclipped first-step gradient norm is
	// large (≈ 346); clipping must hand the rule a gradient of norm ≤
	// maxNorm. RMSProp's first second-moment slot is (1-ρ)·g², so it shows
	// the gradient the rule saw.
	target := []float64{100, 100, 100}
	m := newQuadModel(Config{Type: "rmsprop", LearningRate: 1, MaxGradNorm: 1}, target)
	ct, err := exec.NewComponentTest("static", m.Component, exec.InputSpaces{"update": {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Test("update"); err != nil {
		t.Fatal(err)
	}
	norm := 0.0
	for _, v := range m.opt.state[m.w].V.Data() {
		norm += v / (1 - rmspropDecay)
	}
	norm = math.Sqrt(norm)
	if norm > 1.0+1e-6 || norm < 0.5 {
		t.Fatalf("the rule saw a gradient of norm %g, want ≤ 1 (and clipped, not vanished)", norm)
	}
}

func TestStepCounterAdvances(t *testing.T) {
	m := newQuadModel(Config{Type: "adam", LearningRate: 0.01}, []float64{1, 1, 1})
	ct, err := exec.NewComponentTest("define-by-run", m.Component, exec.InputSpaces{"update": {}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ct.Test("update"); err != nil {
			t.Fatal(err)
		}
	}
	if stepsOf(m.opt) != 5 {
		t.Fatalf("steps = %d", stepsOf(m.opt))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New("o", Config{Type: "adagrad", LearningRate: 0.1}, nil); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := New("o", Config{Type: "adam"}, nil); err == nil {
		t.Fatal("zero learning rate accepted")
	}
}

// mlpModel is a two-layer regression network with three variables, so one
// step chains three updates and the backward pass reads w2 after the forward
// pass did — the ordering the in-place updates must respect.
type mlpModel struct {
	*component.Component
	w1, b1, w2 *vars.Variable
	opt        *Optimizer
}

func newMLPModel(cfg Config) *mlpModel {
	m := &mlpModel{Component: component.New("mlp")}
	m.SetImpl(m)
	m.opt = mustNew("opt", cfg, func() []*vars.Variable { return []*vars.Variable{m.w1, m.b1, m.w2} })
	m.AddSub(m.opt.Component)
	m.DefineAPI("update", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		loss := m.GraphFn(ctx, "loss", 1, func(ops backend.Ops, refs []backend.Ref) []backend.Ref {
			h := ops.Tanh(ops.Add(ops.MatMul(refs[0], ops.VarRead(m.w1)), ops.VarRead(m.b1)))
			return []backend.Ref{ops.Sum(ops.Square(ops.Sub(ops.MatMul(h, ops.VarRead(m.w2)), refs[1])))}
		}, in...)
		return append(loss, m.opt.Call(ctx, "step", loss...)...)
	})
	return m
}

func (m *mlpModel) CreateVariables(_ backend.Ops, _ []spaces.Space) error {
	rng := rand.New(rand.NewSource(9))
	m.w1 = m.AddVariable(vars.New("w1", tensor.RandNormal(rng, 0, 0.5, 3, 5)))
	m.b1 = m.AddVariable(vars.New("b1", tensor.New(5)))
	m.w2 = m.AddVariable(vars.New("w2", tensor.RandNormal(rng, 0, 0.5, 5, 2)))
	return nil
}

// trainMLP builds the model on a backend, runs `steps` updates on a fixed
// batch sequence through run, and returns weights followed by slots.
func trainMLP(t *testing.T, backendName string, cfg Config, steps int,
	run func(ct *exec.ComponentTest, x, y *tensor.Tensor) error) []*tensor.Tensor {
	t.Helper()
	m := newMLPModel(cfg)
	ct, err := exec.NewComponentTest(backendName, m.Component, exec.InputSpaces{
		"update": {spaces.NewFloatBox(3).WithBatchRank(), spaces.NewFloatBox(2).WithBatchRank()},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < steps; i++ {
		x, y := tensor.RandNormal(rng, 0, 1, 6, 3), tensor.RandNormal(rng, 0, 1, 6, 2)
		if err := run(ct, x, y); err != nil {
			t.Fatal(err)
		}
	}
	if stepsOf(m.opt) != steps {
		t.Fatalf("%s/%s: Step() = %d, want %d", backendName, cfg.Type, stepsOf(m.opt), steps)
	}
	var out []*tensor.Tensor
	for _, v := range []*vars.Variable{m.w1, m.b1, m.w2} {
		st := m.opt.state[v]
		for _, x := range []*tensor.Tensor{v.Val, st.M, st.V} {
			if x != nil {
				out = append(out, x)
			}
		}
	}
	return out
}

func execute(ct *exec.ComponentTest, x, y *tensor.Tensor) error {
	_, err := ct.Test("update", x, y)
	return err
}

func requireBitEqual(t *testing.T, what string, a, b []*tensor.Tensor) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d tensors", what, len(a), len(b))
	}
	for k := range a {
		ad, bd := a[k].Data(), b[k].Data()
		for i := range ad {
			if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
				t.Fatalf("%s: tensor %d element %d: %v vs %v", what, k, i, ad[i], bd[i])
			}
		}
	}
}

// TestUpdatesBitIdenticalAcrossBackendsAndExecutors: 200 updates leave
// weights and slots bit-equal between the static and define-by-run backends
// and between the serial, parallel and recursive executors, for every rule
// with clipping off and on.
func TestUpdatesBitIdenticalAcrossBackendsAndExecutors(t *testing.T) {
	for _, typ := range []string{"rmsprop", "adam"} {
		for _, maxNorm := range []float64{0, 10} {
			cfg := Config{Type: typ, LearningRate: 0.01, MaxGradNorm: maxNorm}
			name := fmt.Sprintf("%s/clip=%g", typ, maxNorm)
			serial := trainMLP(t, "static", cfg, 200, execute)
			requireBitEqual(t, name+" define-by-run", serial, trainMLP(t, "define-by-run", cfg, 200, execute))
			requireBitEqual(t, name+" parallel", serial, trainMLP(t, "static", cfg, 200,
				func(ct *exec.ComponentTest, x, y *tensor.Tensor) error {
					ct.Executor().(*exec.StaticExecutor).Session().SetParallelism(4)
					return execute(ct, x, y)
				}))
			requireBitEqual(t, name+" recursive", serial, trainMLP(t, "static", cfg, 200,
				func(ct *exec.ComponentTest, x, y *tensor.Tensor) error {
					se := ct.Executor().(*exec.StaticExecutor)
					phs, fetches := se.Registry("update")
					_, err := se.Session().RunRecursive(fetches, graph.Feeds{phs[0]: x, phs[1]: y})
					return err
				}))
		}
	}
}

// mustNew is New for configs the test knows are valid.
func mustNew(name string, cfg Config, provider VarsProvider) *Optimizer {
	o, err := New(name, cfg, provider)
	if err != nil {
		panic(err)
	}
	return o
}

// steps returns the optimizer's applied step count; every variable's state
// counts the same steps.
func stepsOf(o *Optimizer) int {
	for _, st := range o.state {
		return st.Steps
	}
	return 0
}
