package backend

import (
	"math"
	"math/rand"
	"testing"

	"rlgraph/internal/graph"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

var backendNames = []string{"static", "define-by-run"}

// run builds prog on the named backend and returns the values of the refs it
// returns: static through a Session, define-by-run directly on a recording
// pass.
func run(t *testing.T, backendName string, prog func(ops Ops) []Ref) []*tensor.Tensor {
	t.Helper()
	if backendName == "define-by-run" {
		ops := NewEagerOps(true, ModeRun)
		var out []*tensor.Tensor
		for _, r := range prog(ops) {
			out = append(out, ops.Eval(r))
		}
		return out
	}
	ops := NewStaticOps(graph.New())
	var fetches []*graph.Node
	for _, r := range prog(ops) {
		fetches = append(fetches, n(r))
	}
	out, err := graph.NewSession(ops.G).Run(fetches, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// gradOf returns d loss / d v for each of vs, computed by ops.Gradients on
// the named backend.
func gradOf(t *testing.T, backendName string, loss func(ops Ops) Ref, vs ...*vars.Variable) []*tensor.Tensor {
	t.Helper()
	return run(t, backendName, func(ops Ops) []Ref { return ops.Gradients(loss(ops), vs) })
}

// TestGradFiniteDifference checks every op's gradient rule against central
// differences of a scalar loss over a variable x, on both backends.
func TestGradFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	normal := func(std float64, shape ...int) *tensor.Tensor { return tensor.RandNormal(rng, 0, std, shape...) }
	pos := tensor.RandUniform(rng, 0.2, 2, 5)
	w := normal(1, 4, 2)
	filter := normal(0.5, 3, 3, 2, 2)
	conv := tensor.ConvParams{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	weights := normal(1, 2, 4)
	idx := tensor.FromSlice([]float64{0, 2, 1, 2}, 4)
	signs := tensor.FromSlice([]float64{-3, -0.5, 0.2, 2}, 4)
	cond := tensor.FromSlice([]float64{1, 0, 1, 0}, 4)
	target := normal(1, 3, 4)

	cases := []struct {
		name string
		x    *tensor.Tensor
		tol  float64
		loss func(ops Ops, x Ref) Ref
	}{
		{"SquareChain", tensor.FromSlice([]float64{2, 3}, 2), 1e-5, func(ops Ops, x Ref) Ref {
			return ops.Sum(ops.Square(x))
		}},
		{"AbsOneMinusNeg", pos, 1e-5, func(ops Ops, x Ref) Ref {
			return ops.Sum(ops.Mul(ops.Abs(x), ops.OneMinus(ops.Neg(x))))
		}},
		{"TanhSigmoidSqrt", pos, 1e-5, func(ops Ops, x Ref) Ref {
			return ops.Sum(ops.Add(ops.Tanh(x), ops.Add(ops.Sigmoid(x), ops.Sqrt(x))))
		}},
		{"ReluScaleAddScalar", signs, 1e-5, func(ops Ops, x Ref) Ref {
			return ops.Sum(ops.Square(ops.Relu(ops.AddScalar(ops.Scale(x, 2), 0.5))))
		}},
		{"SubMean", normal(1, 3, 4), 1e-5, func(ops Ops, x Ref) Ref {
			return ops.Mean(ops.Square(ops.Sub(ops.Const(target), x)))
		}},
		{"MatMul", normal(1, 3, 4), 1e-5, func(ops Ops, x Ref) Ref {
			return ops.Sum(ops.Square(ops.MatMul(x, ops.Const(w))))
		}},
		{"Conv2D", normal(1, 1, 5, 5, 2), 1e-4, func(ops Ops, x Ref) Ref {
			return ops.Sum(ops.Square(ops.Conv2D(x, ops.Const(filter), conv)))
		}},
		{"Softmax", normal(1, 2, 4), 1e-4, func(ops Ops, x Ref) Ref {
			return ops.Sum(ops.Mul(ops.Softmax(x), ops.Const(weights)))
		}},
		{"LogSoftmax", normal(1, 2, 4), 1e-4, func(ops Ops, x Ref) Ref {
			return ops.Sum(ops.Mul(ops.LogSoftmax(x), ops.Const(weights)))
		}},
		{"MeanAxis", normal(1, 3, 4), 1e-5, func(ops Ops, x Ref) Ref {
			return ops.Sum(ops.Square(ops.MeanAxis(x, 1, false)))
		}},
		{"MaxAxis", tensor.FromSlice([]float64{1, 5, 2, 9, 3, 4}, 2, 3), 1e-5, func(ops Ops, x Ref) Ref {
			return ops.Sum(ops.Square(ops.MaxAxis(x, 1, false)))
		}},
		{"Reshape", normal(1, 2, 6), 1e-5, func(ops Ops, x Ref) Ref {
			return ops.Sum(ops.Square(ops.Reshape(x, -1, 3)))
		}},
		{"Concat", normal(1, 2, 6), 1e-5, func(ops Ops, x Ref) Ref {
			return ops.Sum(ops.Square(ops.Concat(1, x, ops.Scale(x, 2))))
		}},
		{"TakeAlongLastAxis", normal(1, 4, 3), 1e-5, func(ops Ops, x Ref) Ref {
			return ops.Sum(ops.Square(ops.TakeAlongLastAxis(x, ops.Const(idx))))
		}},
		{"WhereClip", signs, 1e-5, func(ops Ops, x Ref) Ref {
			return ops.Sum(ops.Square(ops.Where(ops.Const(cond), ops.Scale(x, 3), x)))
		}},
		{"Huber", signs, 1e-5, func(ops Ops, x Ref) Ref {
			absd := ops.Abs(x)
			small := ops.LessEqual(absd, ops.ConstScalar(1))
			quad := ops.Scale(ops.Square(x), 0.5)
			lin := ops.AddScalar(absd, -0.5)
			return ops.Sum(ops.Where(small, quad, lin))
		}},
		{"SliceCols", normal(1, 3, 5), 1e-5, func(ops Ops, x Ref) Ref {
			return ops.Sum(ops.Square(ops.SliceCols(x, 1, 4)))
		}},
		{"ShardRows", normal(1, 4, 3), 1e-5, func(ops Ops, x Ref) Ref {
			return ops.Sum(ops.Square(ops.ShardRows(x, 1, 2)))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, be := range backendNames {
				v := vars.New("x", c.x.Clone())
				loss := func(ops Ops) Ref { return c.loss(ops, ops.VarRead(v)) }
				g := gradOf(t, be, loss, v)[0].Clone()
				lossAt := func(i int, x float64) float64 {
					v.Val.Data()[i] = x
					return run(t, be, func(ops Ops) []Ref { return []Ref{loss(ops)} })[0].Item()
				}
				const eps = 1e-6
				for i, x := range c.x.Data() {
					num := (lossAt(i, x+eps) - lossAt(i, x-eps)) / (2 * eps)
					v.Val.Data()[i] = x
					if math.Abs(num-g.Data()[i]) > c.tol*(1+math.Abs(num)) {
						t.Fatalf("%s: grad[%d]: numeric %g vs %g", be, i, num, g.Data()[i])
					}
				}
			}
		})
	}
}

// TestSharedVarReadGetsEveryGradient reads one variable twice: both reads
// are the node Gradients differentiates towards, so d/dw Σ w·w = 2w exactly.
func TestSharedVarReadGetsEveryGradient(t *testing.T) {
	w := vars.New("w", tensor.FromSlice([]float64{1, -2}, 2))
	for _, be := range backendNames {
		g := gradOf(t, be, func(ops Ops) Ref { return ops.Sum(ops.Mul(ops.VarRead(w), ops.VarRead(w))) }, w)[0]
		if !g.Equal(tensor.FromSlice([]float64{2, -4}, 2)) {
			t.Fatalf("%s: grad = %v", be, g)
		}
	}
}

// TestStopGradientBlocksGradient differentiates Σ x·stop(x): only the
// unstopped factor contributes, so the gradient is x, not 2x.
func TestStopGradientBlocksGradient(t *testing.T) {
	x := vars.New("x", tensor.FromSlice([]float64{3, 4}, 2))
	for _, be := range backendNames {
		g := gradOf(t, be, func(ops Ops) Ref {
			xr := ops.VarRead(x)
			return ops.Sum(ops.Mul(xr, ops.StopGradient(xr)))
		}, x)[0]
		if !g.Equal(x.Val) {
			t.Fatalf("%s: grad = %v, want x", be, g)
		}
	}
}

// TestUnreachedVariableGetsZeroGradient asks for the gradient of a variable
// the loss never reads, beside one it does: the first is zeros of its shape.
func TestUnreachedVariableGetsZeroGradient(t *testing.T) {
	used := vars.New("used", tensor.Ones(2))
	unused := vars.New("unused", tensor.Ones(2, 3))
	for _, be := range backendNames {
		gs := gradOf(t, be, func(ops Ops) Ref {
			return ops.Sum(ops.Mul(ops.VarRead(used), ops.Const(tensor.Ones(2))))
		}, used, unused)
		if !gs[0].Equal(tensor.Ones(2)) || !gs[1].Equal(tensor.New(2, 3)) {
			t.Fatalf("%s: grads = %v, %v", be, gs[0], gs[1])
		}
	}
}

// TestBackendsAgreeBitForBit computes an MLP loss and its gradients with
// respect to the input and both weights on each backend: every bit agrees.
func TestBackendsAgreeBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := vars.New("x", tensor.RandNormal(rng, 0, 1, 4, 3))
	w1 := vars.New("w1", tensor.RandNormal(rng, 0, 0.5, 3, 5))
	w2 := vars.New("w2", tensor.RandNormal(rng, 0, 0.5, 5, 2))
	target := tensor.RandNormal(rng, 0, 1, 4, 2)
	prog := func(ops Ops) []Ref {
		h := ops.Relu(ops.MatMul(ops.VarRead(x), ops.VarRead(w1)))
		out := ops.MatMul(h, ops.VarRead(w2))
		loss := ops.Mean(ops.Square(ops.Sub(out, ops.Const(target))))
		return append([]Ref{loss}, ops.Gradients(loss, []*vars.Variable{x, w1, w2})...)
	}
	static, eager := run(t, "static", prog), run(t, "define-by-run", prog)
	for i := range static {
		if !static[i].Equal(eager[i]) {
			t.Fatalf("result %d differs: static %v, define-by-run %v", i, static[i], eager[i])
		}
	}
}
