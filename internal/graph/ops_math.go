package graph

import (
	"fmt"

	"rlgraph/internal/tensor"
)

// binOp is a broadcasting elementwise binary op. gradFn may be nil for
// non-differentiable ops (comparisons); autodiff then treats the op as a
// constant. flat, when set, is the op's flat kernel: Eval runs it on same
// shapes and suffix broadcasts — bias adds ([B,N]+[N]), scalar operands —
// one tile at a time, and on column broadcasts — the dueling head's
// [B,N]-[B,1] and [B,1]+[B,N] — one row at a time, with the output from the
// run's arena. Element order and arithmetic are those of the tensor-package
// op, so both paths are bit-for-bit equal.
type binOp struct {
	name   string
	fn     func(a, b *tensor.Tensor) *tensor.Tensor
	flat   func(dst, a, b []float64)
	gradFn func(g *Graph, n *Node, gy *Node) []*Node
}

func (o *binOp) Name() string { return o.name }
func (o *binOp) InferShape(in [][]int) ([]int, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("want 2 inputs, got %d", len(in))
	}
	return broadcastStatic(in[0], in[1])
}
func (o *binOp) Eval(ctx *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	a, b := in[0], in[1]
	if o.flat == nil {
		return o.fn(a, b), nil
	}
	big, small := a.Shape(), b.Shape()
	if tensor.SuffixShape(small, big) || tensor.ColumnShape(small, big) {
		big, small = small, big
	}
	switch {
	case tensor.SuffixShape(big, small):
		out := ctx.NewTensor(big...)
		tensor.TileFlat(o.flat, out.Data(), a.Data(), b.Data())
		return out, nil
	case tensor.ColumnShape(big, small):
		out := ctx.NewTensor(big...)
		tensor.ColumnFlat(o.flat, out.Data(), a.Data(), b.Data())
		return out, nil
	}
	return o.fn(a, b), nil
}
func (o *binOp) Grad(g *Graph, n *Node, gy *Node) []*Node {
	if o.gradFn == nil {
		return nil
	}
	return o.gradFn(g, n, gy)
}
func (o *binOp) ValueSemantics() {}

// unOp is an elementwise unary op. flat is the flat fast-path kernel (see
// binOp); sval carries the compile-time scalar of parameterized ops (Scale,
// AddScalar) so the plan compiler's fusion pass can extract it.
type unOp struct {
	name   string
	fn     func(a *tensor.Tensor) *tensor.Tensor
	flat   func(dst, a []float64)
	sval   float64
	gradFn func(g *Graph, n *Node, gy *Node) []*Node
}

func (o *unOp) Name() string                         { return o.name }
func (o *unOp) InferShape(in [][]int) ([]int, error) { return in[0], nil }
func (o *unOp) Eval(ctx *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	if o.flat != nil {
		out := ctx.NewTensor(in[0].Shape()...)
		o.flat(out.Data(), in[0].Data())
		return out, nil
	}
	return o.fn(in[0]), nil
}
func (o *unOp) Grad(g *Graph, n *Node, gy *Node) []*Node {
	if o.gradFn == nil {
		return nil
	}
	return o.gradFn(g, n, gy)
}
func (o *unOp) ValueSemantics() {}

// Add returns a+b with broadcasting.
func Add(g *Graph, a, b *Node) *Node {
	return g.Add(&binOp{name: "Add", fn: tensor.Add, flat: tensor.AddFlat,
		gradFn: func(g *Graph, n *Node, gy *Node) []*Node {
			return []*Node{
				UnbroadcastLike(g, gy, n.inputs[0]),
				UnbroadcastLike(g, gy, n.inputs[1]),
			}
		}}, a, b)
}

// Sub returns a-b with broadcasting.
func Sub(g *Graph, a, b *Node) *Node {
	return g.Add(&binOp{name: "Sub", fn: tensor.Sub, flat: tensor.SubFlat,
		gradFn: func(g *Graph, n *Node, gy *Node) []*Node {
			return []*Node{
				UnbroadcastLike(g, gy, n.inputs[0]),
				UnbroadcastLike(g, Neg(g, gy), n.inputs[1]),
			}
		}}, a, b)
}

// Mul returns a*b elementwise with broadcasting.
func Mul(g *Graph, a, b *Node) *Node {
	return g.Add(&binOp{name: "Mul", fn: tensor.Mul, flat: tensor.MulFlat,
		gradFn: func(g *Graph, n *Node, gy *Node) []*Node {
			a, b := n.inputs[0], n.inputs[1]
			return []*Node{
				UnbroadcastLike(g, Mul(g, gy, b), a),
				UnbroadcastLike(g, Mul(g, gy, a), b),
			}
		}}, a, b)
}

// Div returns a/b elementwise with broadcasting.
func Div(g *Graph, a, b *Node) *Node {
	return g.Add(&binOp{name: "Div", fn: tensor.Div, flat: tensor.DivFlat,
		gradFn: func(g *Graph, n *Node, gy *Node) []*Node {
			a, b := n.inputs[0], n.inputs[1]
			da := Div(g, gy, b)
			db := Neg(g, Div(g, Mul(g, gy, a), Mul(g, b, b)))
			return []*Node{UnbroadcastLike(g, da, a), UnbroadcastLike(g, db, b)}
		}}, a, b)
}

// Maximum returns elementwise max(a,b) with subgradient routed to the larger
// operand (ties go to a).
func Maximum(g *Graph, a, b *Node) *Node {
	return g.Add(&binOp{name: "Maximum", fn: tensor.Maximum, flat: tensor.MaximumFlat,
		gradFn: func(g *Graph, n *Node, gy *Node) []*Node {
			a, b := n.inputs[0], n.inputs[1]
			mask := GreaterEqual(g, a, b)
			return []*Node{
				UnbroadcastLike(g, Mul(g, gy, mask), a),
				UnbroadcastLike(g, Mul(g, gy, OneMinus(g, mask)), b),
			}
		}}, a, b)
}

// Minimum returns elementwise min(a,b) with subgradient to the smaller
// operand (ties go to a).
func Minimum(g *Graph, a, b *Node) *Node {
	return g.Add(&binOp{name: "Minimum", fn: tensor.Minimum, flat: tensor.MinimumFlat,
		gradFn: func(g *Graph, n *Node, gy *Node) []*Node {
			a, b := n.inputs[0], n.inputs[1]
			mask := LessEqual(g, a, b)
			return []*Node{
				UnbroadcastLike(g, Mul(g, gy, mask), a),
				UnbroadcastLike(g, Mul(g, gy, OneMinus(g, mask)), b),
			}
		}}, a, b)
}

// GreaterEqual returns 1 where a>=b else 0 (non-differentiable).
func GreaterEqual(g *Graph, a, b *Node) *Node {
	return g.Add(&binOp{name: "GreaterEqual", fn: tensor.GreaterEqual, flat: tensor.GreaterEqualFlat}, a, b)
}

// LessEqual returns 1 where a<=b else 0 (non-differentiable).
func LessEqual(g *Graph, a, b *Node) *Node {
	return g.Add(&binOp{name: "LessEqual", fn: func(x, y *tensor.Tensor) *tensor.Tensor {
		return tensor.GreaterEqual(y, x)
	}}, a, b)
}

// Less returns 1 where a<b else 0 (non-differentiable).
func Less(g *Graph, a, b *Node) *Node {
	return g.Add(&binOp{name: "Less", fn: tensor.Less, flat: tensor.LessFlat}, a, b)
}

// EqualElems returns 1 where a==b else 0 (non-differentiable).
func EqualElems(g *Graph, a, b *Node) *Node {
	return g.Add(&binOp{name: "EqualElems", fn: tensor.EqualElems, flat: tensor.EqualFlat}, a, b)
}

// Neg returns -x.
func Neg(g *Graph, x *Node) *Node {
	return g.Add(&unOp{name: "Neg", fn: tensor.Neg, flat: tensor.NegFlat,
		gradFn: func(g *Graph, _ *Node, gy *Node) []*Node {
			return []*Node{Neg(g, gy)}
		}}, x)
}

// Exp returns e**x.
func Exp(g *Graph, x *Node) *Node {
	return g.Add(&unOp{name: "Exp", fn: tensor.Exp, flat: tensor.ExpFlat,
		gradFn: func(g *Graph, n *Node, gy *Node) []*Node {
			return []*Node{Mul(g, gy, n)} // d exp = exp(x) = n's output
		}}, x)
}

// Log returns ln(x).
func Log(g *Graph, x *Node) *Node {
	return g.Add(&unOp{name: "Log", fn: tensor.Log, flat: tensor.LogFlat,
		gradFn: func(g *Graph, n *Node, gy *Node) []*Node {
			return []*Node{Div(g, gy, n.inputs[0])}
		}}, x)
}

// Sqrt returns sqrt(x).
func Sqrt(g *Graph, x *Node) *Node {
	return g.Add(&unOp{name: "Sqrt", fn: tensor.Sqrt, flat: tensor.SqrtFlat,
		gradFn: func(g *Graph, n *Node, gy *Node) []*Node {
			return []*Node{Div(g, gy, Scale(g, n, 2))}
		}}, x)
}

// Square returns x*x.
func Square(g *Graph, x *Node) *Node {
	return g.Add(&unOp{name: "Square", fn: tensor.Square, flat: tensor.SquareFlat,
		gradFn: func(g *Graph, n *Node, gy *Node) []*Node {
			return []*Node{Mul(g, gy, Scale(g, n.inputs[0], 2))}
		}}, x)
}

// Abs returns |x| with subgradient sign(x).
func Abs(g *Graph, x *Node) *Node {
	return g.Add(&unOp{name: "Abs", fn: tensor.Abs, flat: tensor.AbsFlat,
		gradFn: func(g *Graph, n *Node, gy *Node) []*Node {
			return []*Node{Mul(g, gy, Sign(g, n.inputs[0]))}
		}}, x)
}

// Sign returns -1/0/+1 per element (non-differentiable).
func Sign(g *Graph, x *Node) *Node {
	return g.Add(&unOp{name: "Sign", fn: func(a *tensor.Tensor) *tensor.Tensor {
		return tensor.Sub(tensor.GreaterEqual(a, tensor.Scalar(0)),
			tensor.GreaterEqual(tensor.Neg(a), tensor.Scalar(0)))
	}}, x)
}

// Relu returns max(x,0).
func Relu(g *Graph, x *Node) *Node {
	return g.Add(&unOp{name: "Relu", fn: tensor.Relu, flat: tensor.ReluFlat,
		gradFn: func(g *Graph, n *Node, gy *Node) []*Node {
			mask := g.Add(&unOp{name: "ReluMask", fn: tensor.ReluGrad, flat: tensor.ReluGradFlat}, n.inputs[0])
			return []*Node{Mul(g, gy, mask)}
		}}, x)
}

// Tanh returns tanh(x).
func Tanh(g *Graph, x *Node) *Node {
	return g.Add(&unOp{name: "Tanh", fn: tensor.Tanh, flat: tensor.TanhFlat,
		gradFn: func(g *Graph, n *Node, gy *Node) []*Node {
			return []*Node{Mul(g, gy, OneMinus(g, Mul(g, n, n)))}
		}}, x)
}

// Sigmoid returns 1/(1+e^-x).
func Sigmoid(g *Graph, x *Node) *Node {
	return g.Add(&unOp{name: "Sigmoid", fn: tensor.Sigmoid, flat: tensor.SigmoidFlat,
		gradFn: func(g *Graph, n *Node, gy *Node) []*Node {
			return []*Node{Mul(g, gy, Mul(g, n, OneMinus(g, n)))}
		}}, x)
}

// OneMinus returns 1-x.
func OneMinus(g *Graph, x *Node) *Node {
	return g.Add(&unOp{name: "OneMinus",
		fn: func(a *tensor.Tensor) *tensor.Tensor {
			return tensor.AddScalar(tensor.Neg(a), 1)
		},
		flat: tensor.OneMinusFlat,
		gradFn: func(g *Graph, _ *Node, gy *Node) []*Node {
			return []*Node{Neg(g, gy)}
		}}, x)
}

// Scale returns x*s for a compile-time scalar s.
func Scale(g *Graph, x *Node, s float64) *Node {
	return g.Add(&unOp{name: "Scale", sval: s,
		fn:   func(a *tensor.Tensor) *tensor.Tensor { return tensor.Scale(a, s) },
		flat: func(dst, a []float64) { tensor.ScaleFlat(dst, a, s) },
		gradFn: func(g *Graph, _ *Node, gy *Node) []*Node {
			return []*Node{Scale(g, gy, s)}
		}}, x)
}

// AddScalar returns x+s for a compile-time scalar s.
func AddScalar(g *Graph, x *Node, s float64) *Node {
	return g.Add(&unOp{name: "AddScalar", sval: s,
		fn:   func(a *tensor.Tensor) *tensor.Tensor { return tensor.AddScalar(a, s) },
		flat: func(dst, a []float64) { tensor.AddScalarFlat(dst, a, s) },
		gradFn: func(g *Graph, _ *Node, gy *Node) []*Node {
			return []*Node{gy}
		}}, x)
}

// Clip limits x to [lo,hi] with a pass-through subgradient inside the range.
func Clip(g *Graph, x *Node, lo, hi float64) *Node {
	return g.Add(&unOp{name: "Clip",
		fn:   func(a *tensor.Tensor) *tensor.Tensor { return tensor.Clip(a, lo, hi) },
		flat: func(dst, a []float64) { tensor.ClipFlat(dst, a, lo, hi) },
		gradFn: func(g *Graph, n *Node, gy *Node) []*Node {
			inRange := g.Add(&unOp{name: "ClipMask", fn: func(a *tensor.Tensor) *tensor.Tensor {
				return tensor.Mul(tensor.GreaterEqual(a, tensor.Scalar(lo)),
					tensor.GreaterEqual(tensor.Scalar(hi), a))
			}}, n.inputs[0])
			return []*Node{Mul(g, gy, inRange)}
		}}, x)
}

// Where returns a where cond != 0 else b; gradients flow into the selected
// branch only.
type whereOp struct{}

func (whereOp) Name() string { return "Where" }
func (whereOp) InferShape(in [][]int) ([]int, error) {
	s, err := broadcastStatic(in[0], in[1])
	if err != nil {
		return nil, err
	}
	return broadcastStatic(s, in[2])
}
func (whereOp) Eval(_ *RunCtx, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.Where(in[0], in[1], in[2]), nil
}
func (whereOp) ValueSemantics() {}
func (whereOp) Grad(g *Graph, n *Node, gy *Node) []*Node {
	cond, a, b := n.inputs[0], n.inputs[1], n.inputs[2]
	zero := ZerosLike(g, gy)
	da := g.Add(whereOp{}, cond, gy, zero)
	db := g.Add(whereOp{}, cond, zero, gy)
	return []*Node{nil, UnbroadcastLike(g, da, a), UnbroadcastLike(g, db, b)}
}

// Where adds a conditional-select node.
func Where(g *Graph, cond, a, b *Node) *Node { return g.Add(whereOp{}, cond, a, b) }
