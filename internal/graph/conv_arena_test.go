package graph

import (
	"math/rand"
	"runtime"
	"testing"

	"rlgraph/internal/israce"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// TestConvOpsDrawFromRunArena: the conv forward op and both of its gradient
// ops carry ValueSemantics, so their outputs are recycled when the plan is
// done with them; they must also be drawn from the arena, or every run
// allocates them afresh. In steady state a run of forward plus both
// gradients has to allocate less than the forward output alone, and agree
// bit for bit with the recursive executor, which allocates everything.
func TestConvOpsDrawFromRunArena(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New()
	x := Placeholder(g, "x", []int{4, 16, 16, 3})
	f := VarRead(g, vars.New("f", tensor.RandNormal(rng, 0, 1, 3, 3, 3, 8)))
	p := tensor.ConvParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	loss := Sum(g, Square(g, Conv2D(g, x, f, p)))
	grads := Gradients(g, loss, []*Node{x, f})
	fetches := []*Node{loss, Sum(g, grads[0]), Sum(g, grads[1])}
	feeds := Feeds{x: tensor.RandNormal(rng, 0, 1, 4, 16, 16, 3)}

	sess := NewSession(g)
	want, err := sess.RunRecursive(fetches, feeds)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		got, err := sess.Run(fetches, feeds)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !bitsEqual(got[i], want[i]) {
				t.Fatalf("fetch %d: plan %v, recursive %v", i, got[i], want[i])
			}
		}
	}
	for i := 0; i < 3; i++ {
		run() // fills the arena
	}
	if israce.Enabled {
		t.Skip("sync.Pool drops Puts under -race, so the arena cannot reach a steady state")
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if forward := uint64(4 * 16 * 16 * 8 * 8); perRun >= forward {
		t.Fatalf("a run allocates %d bytes; the forward output alone is %d", perRun, forward)
	}
}
