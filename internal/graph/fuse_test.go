package graph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// buildOptimizerStyleProgram wires the elementwise chains the fusion pass
// targets: moment updates Add(Scale,Scale), parameter steps Sub(x, Scale(g)),
// residual adds Add(x, Mul(a,b)), and a relu backward Mul(gy, ReluMask(x)).
func buildOptimizerStyleProgram(g *Graph) (feeds Feeds, fetch *Node) {
	rng := rand.New(rand.NewSource(7))
	randT := func(shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		d := t.Data()
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		return t
	}
	x := Placeholder(g, "x", []int{4, 8})
	m := Const(g, randT(4, 8))
	grad := Const(g, randT(4, 8))

	// Momentum-style: m' = 0.9*m + 0.1*grad.
	m2 := Add(g, Scale(g, m, 0.9), Scale(g, grad, 0.1))
	// SGD-style: x' = x - 0.01*m'.
	x2 := Sub(g, x, Scale(g, m2, 0.01))
	// Residual: r = x' + m*grad.
	r := Add(g, x2, Mul(g, m, grad))
	// Relu backward: dr = gy * mask(x').
	mask := g.Add(&unOp{name: "ReluMask", fn: tensor.ReluGrad, flat: tensor.ReluGradFlat}, x2)
	dr := Mul(g, r, mask)
	// One-sided fusions: Add(Scale(a,s), b) and Add(a, Mul(b,c)).
	out := Add(g, Scale(g, dr, 2.5), r)
	out = Add(g, out, Mul(g, dr, m))
	fetch = Sum(g, out)

	feeds = Feeds{x: randT(4, 8)}
	return feeds, fetch
}

// TestFusionShrinksPlanAndMatchesRecursive: the fusion pass must collapse the
// optimizer-style chains into fewer steps while producing bit-identical
// results on the serial, parallel, and recursive paths — with evaluation
// counters unchanged.
func TestFusionShrinksPlanAndMatchesRecursive(t *testing.T) {
	g := New()
	feeds, fetch := buildOptimizerStyleProgram(g)

	fused := NewSession(g)
	plain := NewSession(g)
	plain.fusion.Store(false)

	pf, err := fused.Compile([]*Node{fetch}, []*Node{feedKeys(feeds)[0]})
	if err != nil {
		t.Fatal(err)
	}
	pp, err := plain.Compile([]*Node{fetch}, []*Node{feedKeys(feeds)[0]})
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.steps) >= len(pp.steps) {
		t.Fatalf("fusion did not shrink the plan: fused %d steps, unfused %d", len(pf.steps), len(pp.steps))
	}

	ref := NewSession(g)
	want, err := ref.RunRecursive([]*Node{fetch}, feeds)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Session{"fused": fused, "unfused": plain} {
		for _, par := range []int{1, 4} {
			s.SetParallelism(par)
			got, err := s.Run([]*Node{fetch}, feeds)
			if err != nil {
				t.Fatalf("%s par=%d: %v", name, par, err)
			}
			if !bitsEqual(got[0], want[0]) {
				t.Fatalf("%s par=%d diverges from recursive: %v vs %v", name, par, got[0], want[0])
			}
		}
	}

	// Counter parity: a fused step counts itself plus its absorbed producers.
	s1, s2 := NewSession(g), NewSession(g)
	s2.fusion.Store(false)
	if _, err := s1.Run([]*Node{fetch}, feeds); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run([]*Node{fetch}, feeds); err != nil {
		t.Fatal(err)
	}
	if a, b := s1.NodesEvaluated(), s2.NodesEvaluated(); a != b {
		t.Fatalf("fused NodesEvaluated = %d, unfused = %d", a, b)
	}
}

func feedKeys(f Feeds) []*Node {
	out := make([]*Node, 0, len(f))
	for n := range f {
		out = append(out, n)
	}
	return out
}

// TestFusionBroadcastFallback: a statically fusable pattern whose runtime
// operands broadcast must fall back to the composed kernels and still match
// the recursive evaluator bit for bit.
func TestFusionBroadcastFallback(t *testing.T) {
	g := New()
	a := Const(g, tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3))
	b := Const(g, tensor.FromSlice([]float64{0.25, -1.5, 3.75}, 3))
	fetch := Add(g, a, Scale(g, b, 1.0/3.0)) // [2,3] + [3] broadcast

	fused := NewSession(g)
	p, err := fused.Compile([]*Node{fetch}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.steps) != 3 { // a, b, fused Add (Scale absorbed)
		t.Fatalf("expected 3 steps after fusion, got %d", len(p.steps))
	}
	got, err := fused.Run([]*Node{fetch}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSession(g).RunRecursive([]*Node{fetch}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got[0], want[0]) {
		t.Fatalf("broadcast fallback diverges: %v vs %v", got[0], want[0])
	}
}

// TestFusionRespectsFetchesAndSharedUse: a producer that is itself fetched,
// or consumed by more than one step, must not be absorbed.
func TestFusionRespectsFetchesAndSharedUse(t *testing.T) {
	g := New()
	a := Const(g, tensor.FromSlice([]float64{1, 2, 3}, 3))
	b := Const(g, tensor.FromSlice([]float64{4, 5, 6}, 3))
	sc := Scale(g, b, 2)
	sum := Add(g, a, sc)

	s := NewSession(g)
	// Fetching sc pins its slot: 4 steps (a, b, sc, sum), no fusion.
	p, err := s.Compile([]*Node{sum, sc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.steps) != 4 {
		t.Fatalf("fetched producer was absorbed: %d steps, want 4", len(p.steps))
	}
	got, err := s.Run([]*Node{sum, sc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSession(g).RunRecursive([]*Node{sum, sc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("fetch %d diverges", i)
		}
	}

	// A shared producer (two consumers) must survive: Add(a, sc) and
	// Mul(a, sc) both read sc.
	g2 := New()
	a2 := Const(g2, tensor.FromSlice([]float64{1, 2, 3}, 3))
	sc2 := Scale(g2, Const(g2, tensor.FromSlice([]float64{4, 5, 6}, 3)), 2)
	f1, f2 := Add(g2, a2, sc2), Mul(g2, a2, sc2)
	s2 := NewSession(g2)
	p2, err := s2.Compile([]*Node{f1, f2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.steps) != 5 { // a2, const, sc2, f1, f2
		t.Fatalf("shared producer was absorbed: %d steps, want 5", len(p2.steps))
	}
}

// TestFusionAcrossDeviceBoundary: a producer on a different device must stay
// a separate step (its tally belongs to its own device).
func TestFusionAcrossDeviceBoundary(t *testing.T) {
	g := New()
	a := Const(g, tensor.FromSlice([]float64{1, 2}, 2))
	b := Const(g, tensor.FromSlice([]float64{3, 4}, 2))
	sc := Scale(g, b, 0.5)
	sc.SetDevice("gpu0")
	sum := Add(g, a, sc)

	s := NewSession(g)
	p, err := s.Compile([]*Node{sum}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.steps) != 4 {
		t.Fatalf("cross-device producer was absorbed: %d steps, want 4", len(p.steps))
	}
	if _, err := s.Run([]*Node{sum}, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.DeviceNodeCounts()["gpu0"]; got != 1 {
		t.Fatalf("gpu0 tally = %d, want 1", got)
	}
}

// TestBufferReuseRecyclesAndStaysBitExact: repeated serial runs must start
// drawing intermediates from the session arena, and reuse-on vs reuse-off vs
// recursive results must agree bit for bit. Variable state must be immune to
// recycling (the update writes in place once its gradient and norm inputs,
// which every read of the old weights feeds, are done), and so must later
// runs to a caller mutating the tensors an earlier run returned.
func TestBufferReuseRecyclesAndStaysBitExact(t *testing.T) {
	build := func() (*Graph, *vars.Variable, Feeds, []*Node) {
		g := New()
		v := vars.New("w", tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3))
		x := Placeholder(g, "x", []int{2, 3})
		w := VarRead(g, v)
		h := Tanh(g, Add(g, Mul(g, x, w), Scale(g, x, 0.1)))
		loss := Sum(g, Square(g, h))
		rule := &tensor.UpdateRule{Kind: tensor.UpdateSGD, LR: 0.01}
		upd := ApplyUpdate(g, v, rule, rule.NewState(2, 3), h, loss)
		feeds := Feeds{x: tensor.FromSlice([]float64{0.3, -0.2, 0.7, -1.1, 0.05, 2.2}, 2, 3)}
		return g, v, feeds, []*Node{upd}
	}

	run := func(s *Session, fetches []*Node, feeds Feeds, n int) []*tensor.Tensor {
		var last []*tensor.Tensor
		for i := 0; i < n; i++ {
			out, err := s.Run(fetches, feeds)
			if err != nil {
				t.Fatal(err)
			}
			if last != nil {
				// Fetches belong to the caller: scribbling on one must not
				// reach the next run through the arena.
				for i := range last[0].Data() {
					last[0].Data()[i] = -999
				}
			}
			last = out
		}
		return last
	}

	const iters = 64
	g1, v1, f1, fetch1 := build()
	on := NewSession(g1)
	lastOn := run(on, fetch1, f1, iters)
	if gets, hits := on.ArenaStats(); hits == 0 {
		t.Fatalf("arena never recycled: gets=%d hits=%d", gets, hits)
	}

	g2, v2, f2, fetch2 := build()
	off := NewSession(g2)
	off.bufferReuse.Store(false)
	lastOff := run(off, fetch2, f2, iters)

	g3, v3, f3, fetch3 := build()
	rec := NewSession(g3)
	var lastRec []*tensor.Tensor
	for i := 0; i < iters; i++ {
		out, err := rec.RunRecursive(fetch3, f3)
		if err != nil {
			t.Fatal(err)
		}
		lastRec = out
	}

	if !bitsEqual(lastOn[0], lastOff[0]) || !bitsEqual(lastOn[0], lastRec[0]) {
		t.Fatalf("buffer reuse diverges: on=%v off=%v recursive=%v", lastOn[0], lastOff[0], lastRec[0])
	}
	if !bitsEqual(v1.Val, v2.Val) || !bitsEqual(v1.Val, v3.Val) {
		t.Fatalf("variable state diverges: on=%v off=%v recursive=%v", v1.Val, v2.Val, v3.Val)
	}
}

// TestConcurrentFusedPooledRuns: concurrent serial Runs on one session share
// the arena; under -race this exercises the recycling path for races, and
// every run must still produce the reference bits.
func TestConcurrentFusedPooledRuns(t *testing.T) {
	g := New()
	feeds, fetch := buildOptimizerStyleProgram(g)

	want, err := NewSession(g).RunRecursive([]*Node{fetch}, feeds)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSession(g)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				got, err := s.Run([]*Node{fetch}, feeds)
				if err != nil {
					errs <- err
					return
				}
				if !bitsEqual(got[0], want[0]) {
					errs <- fmt.Errorf("concurrent run diverged: %v vs %v", got[0], want[0])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestReluBackwardFusionInAutodiff: the gradient graphs autodiff emits for
// Relu (Mul(gy, ReluMask)) must fuse and still match the recursive reference
// bit for bit, including the -0.0 the literal gy*mask product produces for
// negative upstream gradients against a zero mask.
func TestReluBackwardFusionInAutodiff(t *testing.T) {
	g := New()
	x := Const(g, tensor.FromSlice([]float64{-2, -1, 0, 1, 2, 3}, 2, 3))
	w := vars.New("w", tensor.FromSlice([]float64{0.5, -0.25, 1.5, 2, -1, 0.75}, 2, 3))
	wr := VarRead(g, w)
	loss := Sum(g, Neg(g, Relu(g, Mul(g, x, wr))))
	grads := Gradients(g, loss, []*Node{wr})

	fusedOut, err := NewSession(g).Run(grads, nil)
	if err != nil {
		t.Fatal(err)
	}
	recOut, err := NewSession(g).RunRecursive(grads, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(fusedOut[0], recOut[0]) {
		t.Fatalf("relu backward fusion diverges: %v vs %v", fusedOut[0], recOut[0])
	}
}
