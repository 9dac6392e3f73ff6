package graph

import (
	"math"
	"math/rand"
	"testing"

	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// backendNames are the two ways a graph function's graph is evaluated: built
// into a static graph and run by a Session, or computed as it is built by a
// recording eager graph.
var backendNames = []string{"static", "define-by-run"}

// run builds prog on the named backend and returns the values of the nodes
// it returns.
func run(t *testing.T, backendName string, prog func(g *Graph) []*Node) []*tensor.Tensor {
	t.Helper()
	if backendName == "define-by-run" {
		var out []*tensor.Tensor
		for _, n := range prog(NewEager(true)) {
			out = append(out, n.Value())
		}
		return out
	}
	g := New()
	out, err := NewSession(g).Run(prog(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// gradOf returns d loss / d v for each of vs on the named backend.
func gradOf(t *testing.T, backendName string, loss func(g *Graph) *Node, vs ...*vars.Variable) []*tensor.Tensor {
	t.Helper()
	return run(t, backendName, func(g *Graph) []*Node { return Gradients(g, loss(g), varReads(g, vs)) })
}

func varReads(g *Graph, vs []*vars.Variable) []*Node {
	out := make([]*Node, len(vs))
	for i, v := range vs {
		out[i] = VarRead(g, v)
	}
	return out
}

// TestGradFiniteDifference checks every op's gradient rule against central
// differences of a scalar loss over a variable x, on both backends. The rows
// after ShardRows put x where the shipped networks put their weights: the
// broadcast operand of Add, Sub and Mul (a bias, a column, a scalar), the
// right operand of MatMul and the filter of Conv2D.
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
	batch := normal(1, 3, 4)
	image := normal(1, 1, 5, 5, 2)

	cases := []struct {
		name string
		x    *tensor.Tensor
		tol  float64
		loss func(g *Graph, x *Node) *Node
	}{
		{"SquareChain", tensor.FromSlice([]float64{2, 3}, 2), 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, x))
		}},
		{"AbsOneMinusNeg", pos, 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Mul(g, Abs(g, x), OneMinus(g, Neg(g, x))))
		}},
		{"TanhSigmoidSqrt", pos, 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Add(g, Tanh(g, x), Add(g, Sigmoid(g, x), Sqrt(g, x))))
		}},
		{"ReluScaleAddScalar", signs, 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, Relu(g, AddScalar(g, Scale(g, x, 2), 0.5))))
		}},
		{"SubMean", normal(1, 3, 4), 1e-5, func(g *Graph, x *Node) *Node {
			return Mean(g, Square(g, Sub(g, Const(g, target), x)))
		}},
		{"MatMul", normal(1, 3, 4), 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, MatMul(g, x, Const(g, w))))
		}},
		{"Conv2D", normal(1, 1, 5, 5, 2), 1e-4, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, Conv2D(g, x, Const(g, filter), conv)))
		}},
		{"Softmax", normal(1, 2, 4), 1e-4, func(g *Graph, x *Node) *Node {
			return Sum(g, Mul(g, Softmax(g, x), Const(g, weights)))
		}},
		{"LogSoftmax", normal(1, 2, 4), 1e-4, func(g *Graph, x *Node) *Node {
			return Sum(g, Mul(g, LogSoftmax(g, x), Const(g, weights)))
		}},
		{"MeanAxis", normal(1, 3, 4), 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, MeanAxis(g, x, 1, false)))
		}},
		{"MaxAxis", tensor.FromSlice([]float64{1, 5, 2, 9, 3, 4}, 2, 3), 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, MaxAxis(g, x, 1, false)))
		}},
		{"Reshape", normal(1, 2, 6), 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, Reshape(g, x, -1, 3)))
		}},
		{"Concat", normal(1, 2, 6), 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, Concat(g, 1, x, Scale(g, x, 2))))
		}},
		{"TakeAlongLastAxis", normal(1, 4, 3), 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, TakeAlongLastAxis(g, x, Const(g, idx))))
		}},
		{"WhereClip", signs, 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, Where(g, Const(g, cond), Scale(g, x, 3), x)))
		}},
		{"Huber", signs, 1e-5, func(g *Graph, x *Node) *Node {
			absd := Abs(g, x)
			small := LessEqual(g, absd, ConstScalar(g, 1))
			quad := Scale(g, Square(g, x), 0.5)
			lin := AddScalar(g, absd, -0.5)
			return Sum(g, Where(g, small, quad, lin))
		}},
		{"SliceCols", normal(1, 3, 5), 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, SliceCols(g, x, 1, 4)))
		}},
		{"ShardRows", normal(1, 4, 3), 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, ShardRows(g, x, 1, 2)))
		}},
		{"AddBias", normal(1, 4), 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, Add(g, Const(g, batch), x)))
		}},
		{"MulBiasLeft", normal(1, 4), 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, Mul(g, x, Const(g, batch))))
		}},
		{"SubColumn", normal(1, 3, 1), 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, Sub(g, Const(g, batch), x)))
		}},
		{"MulScalar", tensor.Scalar(0.7), 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, Mul(g, Const(g, batch), x)))
		}},
		{"MatMulRight", normal(1, 4, 2), 1e-5, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, MatMul(g, Const(g, batch), x)))
		}},
		{"Conv2DFilter", normal(0.5, 3, 3, 2, 2), 1e-4, func(g *Graph, x *Node) *Node {
			return Sum(g, Square(g, Conv2D(g, Const(g, image), x, conv)))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, be := range backendNames {
				v := vars.New("x", c.x.Clone())
				loss := func(g *Graph) *Node { return c.loss(g, VarRead(g, v)) }
				grad := gradOf(t, be, loss, v)[0].Clone()
				lossAt := func(i int, x float64) float64 {
					v.Val.Data()[i] = x
					return run(t, be, func(g *Graph) []*Node { return []*Node{loss(g)} })[0].Item()
				}
				const eps = 1e-6
				for i, x := range c.x.Data() {
					num := (lossAt(i, x+eps) - lossAt(i, x-eps)) / (2 * eps)
					v.Val.Data()[i] = x
					if math.Abs(num-grad.Data()[i]) > c.tol*(1+math.Abs(num)) {
						t.Fatalf("%s: grad[%d]: numeric %g vs %g", be, i, num, grad.Data()[i])
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
		grad := gradOf(t, be, func(g *Graph) *Node { return Sum(g, Mul(g, VarRead(g, w), VarRead(g, w))) }, w)[0]
		if !grad.Equal(tensor.FromSlice([]float64{2, -4}, 2)) {
			t.Fatalf("%s: grad = %v", be, grad)
		}
	}
}

// TestStopGradientBlocksGradient differentiates Σ x·stop(x): only the
// unstopped factor contributes, so the gradient is x, not 2x.
func TestStopGradientBlocksGradient(t *testing.T) {
	x := vars.New("x", tensor.FromSlice([]float64{3, 4}, 2))
	for _, be := range backendNames {
		grad := gradOf(t, be, func(g *Graph) *Node {
			xr := VarRead(g, x)
			return Sum(g, Mul(g, xr, StopGradient(g, xr)))
		}, x)[0]
		if !grad.Equal(x.Val) {
			t.Fatalf("%s: grad = %v, want x", be, grad)
		}
	}
}

// TestUnreachedVariableGetsZeroGradient asks for the gradient of a variable
// the loss never reads, beside one it does: the first is zeros of its shape.
func TestUnreachedVariableGetsZeroGradient(t *testing.T) {
	used := vars.New("used", tensor.Ones(2))
	unused := vars.New("unused", tensor.Ones(2, 3))
	for _, be := range backendNames {
		gs := gradOf(t, be, func(g *Graph) *Node {
			return Sum(g, Mul(g, VarRead(g, used), Const(g, tensor.Ones(2))))
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
	prog := func(g *Graph) []*Node {
		h := Relu(g, MatMul(g, VarRead(g, x), VarRead(g, w1)))
		out := MatMul(g, h, VarRead(g, w2))
		loss := Mean(g, Square(g, Sub(g, out, Const(g, target))))
		return append([]*Node{loss}, Gradients(g, loss, varReads(g, []*vars.Variable{x, w1, w2}))...)
	}
	static, eager := run(t, "static", prog), run(t, "define-by-run", prog)
	for i := range static {
		if !static[i].Equal(eager[i]) {
			t.Fatalf("result %d differs: static %v, define-by-run %v", i, static[i], eager[i])
		}
	}
}
