package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// bitsEq compares tensors bit-for-bit (distinguishes ±0, matches NaN bit
// patterns) — the contract the blocked/parallel/fused kernels make against
// the naive references.
func bitsEq(a, b *Tensor) bool {
	if !SameShape(a.shape, b.shape) {
		return false
	}
	for i := range a.data {
		if math.Float64bits(a.data[i]) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return t
}

// TestMatMulDifferential: the blocked (and, above threshold, parallel)
// kernels must agree bit-for-bit with the naive triple-loop references
// across random shapes including size-1 and empty dims.
func TestMatMulDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []int{0, 1, 2, 3, 5, 8, 17, 33, 64, 100}
	for trial := 0; trial < 200; trial++ {
		m := dims[rng.Intn(len(dims))]
		k := dims[rng.Intn(len(dims))]
		n := dims[rng.Intn(len(dims))]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		if got, want := MatMul(a, b), MatMulNaive(a, b); !bitsEq(got, want) {
			t.Fatalf("MatMul [%d,%d]x[%d,%d] diverged from naive", m, k, k, n)
		}
		at := randTensor(rng, k, m)
		if got, want := matMulTransA(at, b), MatMulTransANaive(at, b); !bitsEq(got, want) {
			t.Fatalf("MatMulTransA [%d,%d]x[%d,%d] diverged from naive", k, m, k, n)
		}
		bt := randTensor(rng, n, k)
		if got, want := matMulTransB(a, bt), MatMulTransBNaive(a, bt); !bitsEq(got, want) {
			t.Fatalf("MatMulTransB [%d,%d]x[%d,%d] diverged from naive", m, k, n, k)
		}
	}
	// MatMulTransB transposes b, or a and the result where those are smaller
	// (m·k + m·n < n·k): shapes on the rule, on either side of it, and the
	// pixel network's dense-layer input gradient [32,256]x[1568,256]ᵀ.
	for _, s := range [][3]int{{1, 2, 2}, {1, 3, 2}, {5, 64, 100}, {100, 64, 5}, {32, 256, 1568}, {1568, 256, 32}} {
		m, k, n := s[0], s[1], s[2]
		a, bt := New(m, k), New(n, k)
		fillOperand(rng, a.data, 0.03)
		fillOperand(rng, bt.data, 0.03)
		if got, want := matMulTransB(a, bt), MatMulTransBNaive(a, bt); !bitsEq(got, want) {
			t.Fatalf("MatMulTransB [%d,%d]x[%d,%d] diverged from naive (transposed result: %v)", m, k, n, k, m*k+m*n < n*k)
		}
	}
}

// TestMatMulNonFinite: with the zero-skip branch removed, 0·Inf inside a
// product is NaN, matching the IEEE semantics of the naive reference.
func TestMatMulNonFinite(t *testing.T) {
	a := FromSlice([]float64{0, 1}, 1, 2)
	b := FromSlice([]float64{math.Inf(1), 2, 3, 4}, 2, 2)
	got := MatMul(a, b)
	if !math.IsNaN(got.data[0]) {
		t.Fatalf("0*Inf + 1*3 = %v, want NaN", got.data[0])
	}
	if !bitsEq(got, MatMulNaive(a, b)) {
		t.Fatal("nonfinite MatMul diverged from naive")
	}
}

// TestElementwiseFlatDifferential: every flat fast path must agree
// bit-for-bit with the generic closure path, across shapes with empty and
// size-1 dims.
func TestElementwiseFlatDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := [][]int{{}, {1}, {7}, {0}, {3, 1}, {1, 5}, {4, 9}, {2, 3, 4}}
	bins := []struct {
		name string
		fast func(a, b *Tensor) *Tensor
		ref  func(x, y float64) float64
	}{
		{"Add", Add, func(x, y float64) float64 { return x + y }},
		{"Sub", Sub, func(x, y float64) float64 { return x - y }},
		{"Mul", Mul, func(x, y float64) float64 { return x * y }},
		{"Div", Div, func(x, y float64) float64 { return x / y }},
		{"GreaterEqual", GreaterEqual, func(x, y float64) float64 {
			if x >= y {
				return 1
			}
			return 0
		}},
		{"EqualElems", EqualElems, func(x, y float64) float64 {
			if x == y {
				return 1
			}
			return 0
		}},
	}
	for _, shape := range shapes {
		a := randTensor(rng, shape...)
		b := randTensor(rng, shape...)
		for _, op := range bins {
			if got, want := op.fast(a, b), binary(a, b, op.ref); !bitsEq(got, want) {
				t.Fatalf("%s flat path diverged on shape %v", op.name, shape)
			}
		}
	}
	// Broadcast shapes still route through the generic path.
	a := randTensor(rng, 4, 1)
	b := randTensor(rng, 1, 5)
	if got, want := Add(a, b), binary(a, b, func(x, y float64) float64 { return x + y }); !bitsEq(got, want) {
		t.Fatal("broadcast Add diverged")
	}
}

// TestTileFlatShortRowsMatchRowLoop: a suffix broadcast whose row is shorter
// than a vector runs as one flat call against the row repeated across
// scratch. It must match the per-row calls bit for bit for every row length
// from 1 to one past the cut, with the short operand on either side of a
// non-commutative kernel, and with dst aliasing the long operand as
// AddBroadcastInPlace has it; the short operand must come back unchanged.
func TestTileFlatShortRowsMatchRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	kernels := []struct {
		name string
		fn   func(dst, a, b []float64)
	}{{"AddFlat", AddFlat}, {"SubFlat", SubFlat}}
	for _, k := range kernels {
		for n := 1; n <= 5; n++ {
			for _, rows := range []int{1, 2, 3, 32, 33} {
				for _, shortFirst := range []bool{true, false} {
					for _, alias := range []bool{false, true} {
						name := fmt.Sprintf("%s [%d,%d] shortFirst=%v alias=%v", k.name, rows, n, shortFirst, alias)
						long, longOK := guarded(rows * n)
						short, shortOK := guarded(n)
						fillOperand(rng, long, 0.2)
						fillOperand(rng, short, 0.2)
						keep := append([]float64(nil), short...)
						want := make([]float64, rows*n)
						for r := 0; r < rows*n; r += n {
							if shortFirst {
								k.fn(want[r:r+n], short, long[r:r+n])
							} else {
								k.fn(want[r:r+n], long[r:r+n], short)
							}
						}
						dst, dstOK := long, longOK
						if !alias {
							dst, dstOK = guarded(rows * n)
						}
						if shortFirst {
							TileFlat(k.fn, dst, short, long)
						} else {
							TileFlat(k.fn, dst, long, short)
						}
						if i := sameBits(dst, want); i >= 0 {
							t.Fatalf("%s: element %d = %x, per-row loop %x", name, i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
						}
						if sameBits(short, keep) >= 0 {
							t.Fatalf("%s: the short operand changed", name)
						}
						if !longOK() || !shortOK() || !dstOK() {
							t.Fatalf("%s: wrote outside its operands", name)
						}
					}
				}
			}
		}
	}
}

// TestFusedKernelsDifferential: fused compound kernels must be bit-identical
// to their unfused compositions.
func TestFusedKernelsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		shape := [][]int{{1}, {16}, {3, 7}, {0}, {2, 1, 9}}[rng.Intn(5)]
		a := randTensor(rng, shape...)
		b := randTensor(rng, shape...)
		c := randTensor(rng, shape...)
		s := rng.NormFloat64()

		if got, want := AddScaledInto(New(shape...), a, b, s), Add(a, Scale(b, s)); !bitsEq(got, want) {
			t.Fatalf("AddScaled diverged on %v", shape)
		}
		if got, want := MulAddInto(New(shape...), a, b, c), Add(a, Mul(b, c)); !bitsEq(got, want) {
			t.Fatalf("MulAdd diverged on %v", shape)
		}
		if got, want := AddMulInto(New(shape...), a, b, c), Add(Mul(a, b), c); !bitsEq(got, want) {
			t.Fatalf("AddMul diverged on %v", shape)
		}
		if got, want := ReluBackwardInto(New(shape...), a, b), Mul(a, ReluGrad(b)); !bitsEq(got, want) {
			t.Fatalf("ReluBackward diverged on %v", shape)
		}
		dst1, dst2 := a.Clone(), a.Clone()
		AxpyInPlace(dst1, s, b)
		AddFlat(dst2.Data(), dst2.Data(), Scale(b, s).Data())
		if !bitsEq(dst1, dst2) {
			t.Fatalf("AxpyInPlace diverged on %v", shape)
		}
	}
}

// TestReluBackwardSignedZero: gy*mask must preserve -0 for negative gy
// against a zero mask, exactly like the unfused Mul.
func TestReluBackwardSignedZero(t *testing.T) {
	gy := FromSlice([]float64{-2, 2, -2}, 3)
	x := FromSlice([]float64{-1, -1, 1}, 3)
	got := ReluBackwardInto(New(3), gy, x)
	if math.Float64bits(got.data[0]) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("ReluBackward(-2, mask 0) = %v bits %x, want -0", got.data[0], math.Float64bits(got.data[0]))
	}
	if !bitsEq(got, Mul(gy, ReluGrad(x))) {
		t.Fatal("ReluBackward diverged from Mul(gy, ReluGrad(x)) on signed zero")
	}
}

// TestReluFlatMatchesMathMax: ReluFlat is the builtin max(x, 0) bit for bit,
// which keeps math.Max's rules on every special operand — -0 becomes +0, ±Inf
// and subnormals pass or clamp — and keeps the builtin's NaN, whose bits
// differ by architecture: amd64 clears the sign (0x7ff8000000000000 for
// Inf-Inf), 386 returns the operand. The operands fill more than one 4-lane
// vector, so the assembly kernel sees them too.
func TestReluFlatMatchesMathMax(t *testing.T) {
	src := append([]float64{1.5, -1.5, -0x1p-1074}, specials...)
	for _, b := range []uint64{0x7ff8000000000001, 0xfff8dead0000beef, 0x7ff0000000000001, 0xfff0000000000001} {
		src = append(src, math.Float64frombits(b))
	}
	dst := make([]float64, len(src))
	ReluFlat(dst, src)
	for i, x := range src {
		if want := max(x, 0); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Errorf("ReluFlat(%v) = %v (bits %x), max(x, 0) gives %v (bits %x)", x, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
		}
	}
}

// TestSigmoidStability: table test for the sign-split form at ±40 and ±1000.
// The naive 1/(1+exp(-x)) overflows exp for x = -1000 and returns exactly 0;
// the sign-split form returns the correctly rounded (subnormal) value.
func TestSigmoidStability(t *testing.T) {
	cases := []struct {
		x    float64
		want float64
	}{
		{40, 1 / (1 + math.Exp(-40))},              // ≈ 1 - 4.25e-18
		{-40, math.Exp(-40) / (1 + math.Exp(-40))}, // ≈ 4.25e-18
		{1000, 1},
		{-1000, math.Exp(-1000)}, // subnormal ≈ 5e-435 is below double range: 0, but computed without Inf
		{0, 0.5},
		{-710, math.Exp(-710) / (1 + math.Exp(-710))}, // naive form overflows exp(710)
	}
	for _, c := range cases {
		got := Sigmoid(Scalar(c.x)).Item()
		if math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("Sigmoid(%g) = %g, want %g", c.x, got, c.want)
		}
		if got < 0 || got > 1 || math.IsNaN(got) {
			t.Errorf("Sigmoid(%g) = %g out of [0,1]", c.x, got)
		}
	}
	// Monotonicity across the splice point.
	prev := -1.0
	for x := -50.0; x <= 50; x += 0.5 {
		v := sigmoidPoint(x)
		if v < prev {
			t.Fatalf("Sigmoid not monotone at %g: %g < %g", x, v, prev)
		}
		prev = v
	}
}

// TestArenaReuse: Get/Put recycles buffers, zeroes recycled tensors, and
// serves mismatched sizes from the nearest bucket.
func TestArenaReuse(t *testing.T) {
	a := NewArena()
	t1 := a.Get(4, 8)
	for i := range t1.data {
		t1.data[i] = 42
	}
	a.Put(t1)
	t2 := a.Get(31) // fits the same 32-element bucket
	for i, v := range t2.data {
		if v != 0 {
			t.Fatalf("recycled tensor not zeroed at %d: %v", i, v)
		}
	}
	if len(t2.data) != 31 || t2.Rank() != 1 {
		t.Fatalf("recycled tensor shape %v len %d", t2.shape, len(t2.data))
	}
	// sync.Pool deliberately drops a fraction of Puts under the race
	// detector, so cycle enough times that at least one reuse must land.
	for i := 0; i < 64; i++ {
		a.Put(a.Get(16))
	}
	gets, hits := a.Stats()
	if gets < 2 || hits < 1 {
		t.Fatalf("arena stats gets=%d hits=%d, want a reuse", gets, hits)
	}
	// nil arena degrades to plain allocation.
	var nilA *Arena
	if got := nilA.Get(3); got.Size() != 3 {
		t.Fatal("nil arena Get failed")
	}
	nilA.Put(t2)
	// Zero-size tensors bypass pooling.
	z := a.Get(0, 5)
	if z.Size() != 0 {
		t.Fatal("empty Get")
	}
	a.Put(New()) // scalar: cap 1 pools at bucket 0
	if s := a.Get(); s.Item() != 0 {
		t.Fatal("recycled scalar not zeroed")
	}
}

// TestArenaConcurrent hammers one arena from many goroutines under -race.
func TestArenaConcurrent(t *testing.T) {
	a := NewArena()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				n := 1 + rng.Intn(100)
				tt := a.Get(n)
				for j := range tt.data {
					if tt.data[j] != 0 {
						panic("dirty buffer")
					}
					tt.data[j] = float64(j)
				}
				a.Put(tt)
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestSetKernelParallelism: the setter clamps and restores defaults.
func TestSetKernelParallelism(t *testing.T) {
	defer SetKernelParallelism(0)
	SetKernelParallelism(3)
	if got := KernelParallelism(); got != 3 {
		t.Fatalf("KernelParallelism = %d, want 3", got)
	}
	SetKernelParallelism(0)
	if got := KernelParallelism(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("KernelParallelism = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

// TestParallelForRunsEveryChunkOnce: forks from eight goroutines at once run
// each of their chunks exactly once, and a fork finishes on the caller alone
// while every pool worker is held inside another job.
func TestParallelForRunsEveryChunkOnce(t *testing.T) {
	defer SetKernelParallelism(0)
	SetKernelParallelism(4)

	// A chunk sleeps before it counts, long enough for a parked worker to
	// wake and claim chunks of its own that are still running when the
	// caller runs out of chunks to claim.
	run := func(chunks int) error {
		counts := make([]atomic.Int32, chunks)
		parallelFor(chunks, func(c int) {
			time.Sleep(20 * time.Microsecond)
			counts[c].Add(1)
		})
		for c := range counts {
			if got := counts[c].Load(); got != 1 {
				return fmt.Errorf("%d chunks: chunk %d ran %d times", chunks, c, got)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				for _, chunks := range []int{1, 2, 3, 7, 64, 67} {
					if err := run(chunks); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Hold every worker the pool has: one job with a chunk per worker, each
	// blocking until released.
	workers := int(atomic.LoadInt32(&kernelWorkers))
	started, release := make(chan struct{}), make(chan struct{})
	held := &kernelJob{chunks: int32(workers), fn: func(int) {
		started <- struct{}{}
		<-release
	}}
	held.pending.Add(workers)
	for i := 0; i < workers; i++ {
		kernelJobs <- held
		<-started
	}
	done := make(chan error, 1)
	go func() { done <- run(64) }()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(30 * time.Second):
		t.Error("a fork with every worker busy did not finish")
	}
	close(release)
	held.pending.Wait()
}
