package graph

import (
	"math"
	"math/rand"
	"testing"

	"rlgraph/internal/tensor"
)

// TestBinOpColumnBroadcastRows: the column broadcasts of the dueling head,
// [B,N]∘[B,1] and [B,1]∘[B,N], take binOp's row path. For Add, Sub, Mul and
// Div in both operand orders the result equals the tensor package's generic
// broadcast bit for bit, on operands holding ±0, ±Inf and NaN, and the
// output comes from the run's arena.
func TestBinOpColumnBroadcastRows(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	inf := math.Inf(1)
	specials := []float64{inf - inf, inf, -inf, math.Copysign(0, -1), 0, 0x1p-1060}
	operand := func(shape ...int) *tensor.Tensor {
		x := tensor.RandNormal(rng, 0, 1, shape...)
		for i := range x.Data() {
			if rng.Intn(8) == 0 {
				x.Data()[i] = specials[rng.Intn(len(specials))]
			}
		}
		return x
	}
	ops := []struct {
		name  string
		node  func(g *Graph, a, b *Node) *Node
		whole func(a, b *tensor.Tensor) *tensor.Tensor
	}{
		{"Add", Add, tensor.Add}, {"Sub", Sub, tensor.Sub}, {"Mul", Mul, tensor.Mul}, {"Div", Div, tensor.Div},
	}
	for _, s := range [][2]int{{32, 6}, {5, 2}, {3, 9}} {
		full, col := operand(s[0], s[1]), operand(s[0], 1)
		for _, o := range ops {
			for _, in := range [][2]*tensor.Tensor{{full, col}, {col, full}} {
				g := New()
				op := o.node(g, Const(g, in[0]), Const(g, in[1])).op.(*binOp)
				ctx := &RunCtx{arena: tensor.NewArena()}
				got, err := op.Eval(ctx, in[:])
				if err != nil {
					t.Fatal(err)
				}
				want := o.whole(in[0], in[1])
				if !tensor.SameShape(got.Shape(), want.Shape()) {
					t.Fatalf("%s %v∘%v: shape %v, want %v", o.name, in[0].Shape(), in[1].Shape(), got.Shape(), want.Shape())
				}
				for i, w := range want.Data() {
					if math.Float64bits(got.Data()[i]) != math.Float64bits(w) {
						t.Fatalf("%s %v∘%v: element %d = %x, generic broadcast %x", o.name, in[0].Shape(), in[1].Shape(), i, math.Float64bits(got.Data()[i]), math.Float64bits(w))
					}
				}
				if gets, _ := ctx.arena.Stats(); gets != 1 {
					t.Fatalf("%s %v∘%v: %d arena allocations, want the output's 1", o.name, in[0].Shape(), in[1].Shape(), gets)
				}
			}
		}
	}
}
