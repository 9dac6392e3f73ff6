package graph

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// buildDeepChain returns a ~length-deep AddScalar chain (the unrolled-RNN
// shape) plus its input placeholder.
func buildDeepChain(length int) (*Graph, *Node, *Node) {
	g := New()
	x := Placeholder(g, "x", []int{1})
	n := x
	for i := 0; i < length; i++ {
		n = AddScalar(g, n, 1)
	}
	return g, x, n
}

// TestDeepChainPlanRegression: a 100k-node op chain must evaluate through
// compiled plans — iteratively, with O(1) goroutine stack — both serially
// and under the parallel scheduler. The recursive evaluator overflows on
// this graph (see TestDeepChainRecursiveOverflow).
func TestDeepChainPlanRegression(t *testing.T) {
	const depth = 100_000
	g, x, tail := buildDeepChain(depth)
	sess := NewSession(g)
	feeds := Feeds{x: tensor.FromSlice([]float64{0}, 1)}
	out, err := sess.Run1(tail, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[0] != depth {
		t.Fatalf("got %g, want %d", out.Data()[0], depth)
	}
	sess.SetParallelism(4)
	out, err = sess.Run1(tail, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[0] != depth {
		t.Fatalf("parallel: got %g, want %d", out.Data()[0], depth)
	}
}

// TestDeepChainRecursiveOverflow demonstrates the bug the plans fix: the
// legacy recursive evaluator exhausts the goroutine stack on the same
// 100k-node chain. Stack overflow is a fatal, unrecoverable runtime error,
// so the failing evaluation runs in a child process.
func TestDeepChainRecursiveOverflow(t *testing.T) {
	if os.Getenv("RLGRAPH_OVERFLOW_CHILD") == "1" {
		// Bound the stack so the overflow does not need gigabytes of RAM;
		// production defaults only raise the bound, not the growth.
		debug.SetMaxStack(4 << 20)
		g, x, tail := buildDeepChain(100_000)
		sess := NewSession(g)
		if _, err := sess.RunRecursive([]*Node{tail}, Feeds{x: tensor.FromSlice([]float64{0}, 1)}); err != nil {
			fmt.Println("recursive evaluator errored:", err)
		} else {
			fmt.Println("recursive evaluator survived")
		}
		os.Exit(0) // reaching this line at all means no overflow
	}
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestDeepChainRecursiveOverflow$", "-test.v")
	cmd.Env = append(os.Environ(), "RLGRAPH_OVERFLOW_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("recursive evaluator unexpectedly survived a 100k-deep chain:\n%s", out)
	}
	if !strings.Contains(string(out), "stack") {
		t.Fatalf("child failed for a reason other than stack exhaustion: %v\n%s", err, out)
	}
}

// TestConcurrentRunsAreSafe is the -race regression for the session counter
// races: many goroutines Run the same session concurrently (serially and
// with the parallel scheduler) and the counters must stay exact.
func TestConcurrentRunsAreSafe(t *testing.T) {
	g := New()
	g.SetDefaultDevice("cpu0")
	x := Placeholder(g, "x", []int{-1, 4})
	w := Const(g, tensor.RandNormal(rand.New(rand.NewSource(7)), 0, 1, 4, 4))
	y := Softmax(g, MatMul(g, x, w))
	sess := NewSession(g)

	in := tensor.RandNormal(rand.New(rand.NewSource(8)), 0, 1, 3, 4)
	want, err := sess.Run1(y, Feeds{x: in})
	if err != nil {
		t.Fatal(err)
	}
	perRun := sess.NodesEvaluated()

	for _, workers := range []int{1, 4} {
		sess.SetParallelism(workers)
		const goroutines, runs = 8, 50
		var wg sync.WaitGroup
		var failures atomic.Int32
		before := sess.RunCount()
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < runs; r++ {
					out, err := sess.Run1(y, Feeds{x: in})
					if err != nil || !out.Equal(want) {
						failures.Add(1)
						return
					}
				}
			}()
		}
		wg.Wait()
		if failures.Load() != 0 {
			t.Fatalf("parallelism %d: %d goroutines failed", workers, failures.Load())
		}
		if got := sess.RunCount() - before; got != goroutines*runs {
			t.Fatalf("parallelism %d: RunCount advanced by %d, want %d", workers, got, goroutines*runs)
		}
	}
	totalRuns := sess.RunCount()
	if got := sess.NodesEvaluated(); got != perRun*totalRuns {
		t.Fatalf("NodesEvaluated = %d, want %d (%d per run × %d runs)", got, perRun*totalRuns, perRun, totalRuns)
	}
	if got := sess.DeviceNodeCounts()["cpu0"]; got != perRun*totalRuns {
		t.Fatalf("DeviceNodeCounts[cpu0] = %d, want %d", got, perRun*totalRuns)
	}
}

// TestPlanCacheReuse: same (fetch-set, feed-key-set) hits one cached plan;
// different sets compile separately.
func TestPlanCacheReuse(t *testing.T) {
	g := New()
	x := Placeholder(g, "x", []int{1})
	a := AddScalar(g, x, 1)
	b := AddScalar(g, a, 1)
	sess := NewSession(g)
	feeds := Feeds{x: tensor.FromSlice([]float64{0}, 1)}
	for i := 0; i < 3; i++ {
		if _, err := sess.Run1(b, feeds); err != nil {
			t.Fatal(err)
		}
	}
	if n := sess.CompiledPlans(); n != 1 {
		t.Fatalf("compiled plans = %d, want 1", n)
	}
	if _, err := sess.Run([]*Node{a, b}, feeds); err != nil {
		t.Fatal(err)
	}
	if n := sess.CompiledPlans(); n != 2 {
		t.Fatalf("compiled plans = %d, want 2", n)
	}
	sess.ClearPlans()
	if n := sess.CompiledPlans(); n != 0 {
		t.Fatalf("compiled plans after clear = %d, want 0", n)
	}
}

// TestPlanCacheInvalidatedOnSetDevice is the stale-placement regression:
// re-placing a node with SetDevice must not serve the previously cached plan
// (which baked in the old device for stream scheduling and tallies).
func TestPlanCacheInvalidatedOnSetDevice(t *testing.T) {
	g := New()
	x := Placeholder(g, "x", []int{2})
	y := Tanh(g, AddScalar(g, x, 1))
	sess := NewSession(g)
	feeds := Feeds{x: tensor.FromSlice([]float64{0, 1}, 2)}
	if _, err := sess.Run1(y, feeds); err != nil {
		t.Fatal(err)
	}
	if n := sess.CompiledPlans(); n != 1 {
		t.Fatalf("compiled plans = %d, want 1", n)
	}
	if got := sess.DeviceNodeCounts()["accel:0"]; got != 0 {
		t.Fatalf("pre-placement accel tally = %d, want 0", got)
	}

	epoch := g.PlacementEpoch()
	y.SetDevice("accel:0")
	if g.PlacementEpoch() != epoch+1 {
		t.Fatalf("PlacementEpoch = %d after SetDevice, want %d", g.PlacementEpoch(), epoch+1)
	}
	y.SetDevice("accel:0") // same device: no epoch bump, no extra invalidation
	if g.PlacementEpoch() != epoch+1 {
		t.Fatalf("PlacementEpoch bumped on no-op SetDevice")
	}

	if _, err := sess.Run1(y, feeds); err != nil {
		t.Fatal(err)
	}
	if n := sess.CompiledPlans(); n != 2 {
		t.Fatalf("compiled plans after re-placement = %d, want 2 (stale plan served)", n)
	}
	if got := sess.DeviceNodeCounts()["accel:0"]; got != 1 {
		t.Fatalf("accel tally after re-placement = %d, want 1 (stale placement executed)", got)
	}
}

// TestSessionKnownDeviceValidation: with a known-device set configured,
// compiling a plan that places steps on an unknown device fails with an error
// naming the known devices; the empty (default) device is always allowed.
func TestSessionKnownDeviceValidation(t *testing.T) {
	g := New()
	x := Placeholder(g, "x", []int{1})
	a := AddScalar(g, x, 1)
	a.SetDevice("gpu:7")
	sess := NewSession(g)
	sess.SetKnownDevices([]string{"cpu:0", "gpu:0"})
	_, err := sess.Run1(a, Feeds{x: tensor.FromSlice([]float64{1}, 1)})
	if err == nil {
		t.Fatal("unknown device accepted")
	}
	for _, want := range []string{"gpu:7", "cpu:0", "gpu:0"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}

	a.SetDevice("gpu:0")
	out, err := sess.Run1(a, Feeds{x: tensor.FromSlice([]float64{1}, 1)})
	if err != nil {
		t.Fatalf("known device rejected: %v", err)
	}
	if out.Item() != 2 {
		t.Fatalf("got %g", out.Item())
	}

	sess.SetKnownDevices(nil) // disable validation
	a.SetDevice("anything")
	if _, err := sess.Run1(a, Feeds{x: tensor.FromSlice([]float64{1}, 1)}); err != nil {
		t.Fatalf("validation not disabled: %v", err)
	}
}

// TestFeedOverridesInteriorNode: feeding a non-placeholder node prunes its
// subgraph from the plan, exactly like the recursive evaluator's
// feeds-before-eval check; the feed-key-set is part of the plan cache key.
func TestFeedOverridesInteriorNode(t *testing.T) {
	g := New()
	calls := 0
	src := Stateful(g, "src", []int{}, func([]*tensor.Tensor) (*tensor.Tensor, error) {
		calls++
		return tensor.Scalar(1), nil
	})
	y := AddScalar(g, src, 1)
	sess := NewSession(g)

	out, err := sess.Run1(y, Feeds{src: tensor.Scalar(10)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Item() != 11 || calls != 0 {
		t.Fatalf("fed interior: out=%g calls=%d", out.Item(), calls)
	}
	out, err = sess.Run1(y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Item() != 2 || calls != 1 {
		t.Fatalf("unfed: out=%g calls=%d", out.Item(), calls)
	}
	if n := sess.CompiledPlans(); n != 2 {
		t.Fatalf("compiled plans = %d, want 2 (distinct feed-key-sets)", n)
	}
}

// TestCompiledPlanFeedValidation: a compiled plan rejects missing feeds and
// feeds for closure nodes it did not compile as fed.
func TestCompiledPlanFeedValidation(t *testing.T) {
	g := New()
	x := Placeholder(g, "x", []int{1})
	mid := AddScalar(g, x, 1)
	y := AddScalar(g, mid, 1)
	sess := NewSession(g)
	p, err := sess.Compile([]*Node{y}, []*Node{x})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunCompiled(p, nil); err == nil || !strings.Contains(err.Error(), "expects a feed") {
		t.Fatalf("missing feed not rejected: %v", err)
	}
	in := tensor.FromSlice([]float64{1}, 1)
	if _, err := sess.RunCompiled(p, Feeds{x: in, mid: in}); err == nil || !strings.Contains(err.Error(), "compiled without a feed") {
		t.Fatalf("extra closure feed not rejected: %v", err)
	}
	out, err := sess.RunCompiled(p, Feeds{x: in})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Item() != 3 {
		t.Fatalf("got %g", out[0].Item())
	}
}

// TestCycleDetection: an AddDep-induced cycle is reported as a compile error
// instead of infinite recursion.
func TestCycleDetection(t *testing.T) {
	g := New()
	a := ConstScalar(g, 1)
	b := AddScalar(g, a, 1)
	a.AddDep(b)
	sess := NewSession(g)
	if _, err := sess.Run1(b, nil); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

// concProbe is a pure op that records its maximum Eval concurrency.
type concProbe struct {
	cur, max *int32
}

func (o concProbe) Name() string                      { return "ConcProbe" }
func (o concProbe) InferShape([][]int) ([]int, error) { return []int{}, nil }
func (o concProbe) Eval(*RunCtx, []*tensor.Tensor) (*tensor.Tensor, error) {
	c := atomic.AddInt32(o.cur, 1)
	for {
		m := atomic.LoadInt32(o.max)
		if c <= m || atomic.CompareAndSwapInt32(o.max, m, c) {
			break
		}
	}
	time.Sleep(time.Millisecond)
	atomic.AddInt32(o.cur, -1)
	return tensor.Scalar(float64(c)), nil
}

// TestParallelRespectsDeviceStreams: steps assigned to the same named device
// never exceed the device's stream limit, while unassigned steps run freely.
func TestParallelRespectsDeviceStreams(t *testing.T) {
	run := func(limit int) int32 {
		g := New()
		g.SetDefaultDevice("gpu0")
		var cur, max int32
		nodes := make([]*Node, 8)
		for i := range nodes {
			nodes[i] = g.Add(concProbe{cur: &cur, max: &max})
		}
		g.SetDefaultDevice("")
		grp := Group(g, nodes...)
		sess := NewSession(g)
		sess.SetParallelism(8)
		if limit > 0 {
			sess.SetDeviceLimits(map[string]int{"gpu0": limit})
		}
		if _, err := sess.Run1(grp, nil); err != nil {
			t.Fatal(err)
		}
		return max
	}
	if m := run(0); m != 1 {
		t.Fatalf("default stream limit: max concurrency %d, want 1", m)
	}
	if m := run(4); m > 4 {
		t.Fatalf("limit 4: max concurrency %d", m)
	}
}

// TestParallelStatefulOrderingMatchesSerial: an Assign/VarRead interleaving
// chained by control deps gives identical results at any parallelism level
// (the scheduler totally orders stateful steps in serial order).
func TestParallelStatefulOrderingMatchesSerial(t *testing.T) {
	build := func() (*Graph, []*Node) {
		g := New()
		v := vars.New("v", tensor.Scalar(1))
		var fetches []*Node
		last := VarRead(g, v)
		for i := 0; i < 20; i++ {
			a := Assign(g, v, AddScalar(g, last, 1))
			a.AddDep(last)
			r := VarRead(g, v)
			r.AddDep(a)
			fetches = append(fetches, r)
			last = r
		}
		return g, fetches
	}
	g1, f1 := build()
	s1 := NewSession(g1)
	want, err := s1.Run(f1, nil)
	if err != nil {
		t.Fatal(err)
	}
	g2, f2 := build()
	s2 := NewSession(g2)
	s2.SetParallelism(6)
	got, err := s2.Run(f2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("fetch %d: serial %v vs parallel %v", i, want[i], got[i])
		}
	}
}

// TestErrorPathAccumulatesStats: a failed run still merges node and device
// tallies for everything evaluated before the failure (profiling must not
// undercount failed runs), on the plan path and the recursive path.
func TestErrorPathAccumulatesStats(t *testing.T) {
	build := func() (*Graph, *Node) {
		g := New()
		g.SetDefaultDevice("cpu0")
		ok := AddScalar(g, ConstScalar(g, 1), 1)
		bad := Stateful(g, "boom", []int{}, func([]*tensor.Tensor) (*tensor.Tensor, error) {
			return nil, errBoom{}
		})
		tail := Add(g, ok, bad)
		return g, tail
	}
	g, tail := build()
	sess := NewSession(g)
	if _, err := sess.Run1(tail, nil); err == nil {
		t.Fatal("expected error")
	}
	// Const + AddScalar evaluated before the stateful op failed.
	if got := sess.NodesEvaluated(); got != 2 {
		t.Fatalf("plan path: NodesEvaluated = %d, want 2", got)
	}
	if got := sess.DeviceNodeCounts()["cpu0"]; got != 2 {
		t.Fatalf("plan path: device tally = %d, want 2", got)
	}

	g2, tail2 := build()
	sess2 := NewSession(g2)
	if _, err := sess2.RunRecursive([]*Node{tail2}, nil); err == nil {
		t.Fatal("expected error")
	}
	if got := sess2.NodesEvaluated(); got != 2 {
		t.Fatalf("recursive path: NodesEvaluated = %d, want 2", got)
	}
	if got := sess2.DeviceNodeCounts()["cpu0"]; got != 2 {
		t.Fatalf("recursive path: device tally = %d, want 2", got)
	}
}

// --- Differential property test -------------------------------------------
//
// Random DAGs over math/reduce/shape ops with shared subgraphs, control
// deps, and Assign/VarRead ordering must evaluate identically — bit for bit
// — under the recursive reference evaluator, the serial plan executor, and
// the parallel plan executor. Each evaluator gets a freshly built (but
// rng-identical) graph so variable mutation cannot leak across evaluators.

type evalMode int

const (
	modeRecursive evalMode = iota
	modePlanSerial
	modePlanSerialNoReuse
	modePlanParallel
	modePlanParallelNoReuse
)

// buildRandomProgram constructs the random DAG for one seed: the graph, the
// fetch list, and the feed dict. Each caller gets a freshly built but
// rng-identical program, so variable mutation cannot leak across evaluators.
func buildRandomProgram(seed int64) (*Graph, []*Node, Feeds) {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	v := vars.New("v", tensor.RandNormal(rng, 0, 1, 2, 3))

	feeds := Feeds{}
	x := Placeholder(g, "x", []int{2, 3})
	feeds[x] = tensor.RandNormal(rng, 0, 1, 2, 3)

	mats := []*Node{x, Const(g, tensor.RandNormal(rng, 0, 1, 2, 3))}
	scalars := []*Node{ConstScalar(g, rng.Float64())}
	first := VarRead(g, v)
	mats = append(mats, first)
	lastState := first

	pickMat := func() *Node { return mats[rng.Intn(len(mats))] }
	pickScalar := func() *Node { return scalars[rng.Intn(len(scalars))] }

	for i := 0; i < 50; i++ {
		switch rng.Intn(13) {
		case 0:
			mats = append(mats, Add(g, pickMat(), pickMat()))
		case 1:
			mats = append(mats, Mul(g, pickMat(), pickMat()))
		case 2:
			mats = append(mats, Tanh(g, pickMat()))
		case 3:
			mats = append(mats, Sigmoid(g, pickMat()))
		case 4:
			mats = append(mats, Neg(g, pickMat()))
		case 5:
			mats = append(mats, AddScalar(g, pickMat(), rng.Float64()*2-1))
		case 6:
			scalars = append(scalars, Sum(g, pickMat()))
		case 7:
			scalars = append(scalars, Mean(g, pickMat()))
		case 8:
			// Broadcast a scalar over a matrix.
			mats = append(mats, Add(g, pickMat(), pickScalar()))
		case 9:
			// Shape round trip.
			mats = append(mats, Reshape(g, Transpose(g, Reshape(g, pickMat(), 3, 2)), 2, 3))
		case 10:
			mats = append(mats, Where(g, GreaterEqual(g, pickMat(), pickMat()), pickMat(), pickMat()))
		case 11:
			// Stateful write, ordered against the previous state op.
			a := Assign(g, v, Tanh(g, pickMat()))
			a.AddDep(lastState)
			lastState = a
			mats = append(mats, a)
		case 12:
			// Stateful read, ordered against the previous state op.
			r := VarRead(g, v)
			r.AddDep(lastState)
			lastState = r
			mats = append(mats, r)
		}
		// Occasionally add a pure control dep from a newer node to an older
		// one (always acyclic).
		if rng.Intn(8) == 0 && len(mats) > 2 {
			mats[len(mats)-1].AddDep(mats[rng.Intn(len(mats)-1)])
		}
	}

	fetches := []*Node{lastState}
	for i := 0; i < 3; i++ {
		if rng.Intn(2) == 0 {
			fetches = append(fetches, pickMat())
		} else {
			fetches = append(fetches, pickScalar())
		}
	}
	return g, fetches, feeds
}

func runRandomProgram(seed int64, mode evalMode) ([]*tensor.Tensor, error) {
	g, fetches, feeds := buildRandomProgram(seed)
	sess := NewSession(g)
	switch mode {
	case modeRecursive:
		return sess.RunRecursive(fetches, feeds)
	case modePlanSerialNoReuse:
		sess.bufferReuse.Store(false)
	case modePlanParallel:
		sess.SetParallelism(4) // buffer reuse on by default: completion-order release
	case modePlanParallelNoReuse:
		sess.SetParallelism(4)
		sess.bufferReuse.Store(false)
	}
	return sess.Run(fetches, feeds)
}

// bitsEqual compares tensors bit-for-bit (NaN-safe: identical op sequences
// must produce identical bit patterns).
func bitsEqual(a, b *tensor.Tensor) bool {
	if !tensor.SameShape(a.Shape(), b.Shape()) {
		return false
	}
	da, db := a.Data(), b.Data()
	for i := range da {
		if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
			return false
		}
	}
	return true
}

func TestPlanDifferentialRandomDAGs(t *testing.T) {
	modes := []struct {
		name string
		mode evalMode
	}{
		{"serial+reuse", modePlanSerial},
		{"serial", modePlanSerialNoReuse},
		{"parallel+reuse", modePlanParallel},
		{"parallel", modePlanParallelNoReuse},
	}
	for seed := int64(0); seed < 40; seed++ {
		ref, err := runRandomProgram(seed, modeRecursive)
		if err != nil {
			t.Fatalf("seed %d: recursive: %v", seed, err)
		}
		for _, m := range modes {
			got, err := runRandomProgram(seed, m.mode)
			if err != nil {
				t.Fatalf("seed %d: plan %s: %v", seed, m.name, err)
			}
			if len(ref) != len(got) {
				t.Fatalf("seed %d: plan %s: fetch count mismatch", seed, m.name)
			}
			for i := range ref {
				if !bitsEqual(ref[i], got[i]) {
					t.Fatalf("seed %d fetch %d: plan %s diverged from recursive reference:\n%v\nvs\n%v",
						seed, i, m.name, got[i], ref[i])
				}
			}
		}
	}
}

// TestParallelExecutorRecyclesIntermediates proves completion-order release
// actually returns dead intermediates to the arena under the parallel
// executor: a second run of a deep chain must be served from pool hits.
func TestParallelExecutorRecyclesIntermediates(t *testing.T) {
	g := New()
	x := Placeholder(g, "x", []int{64})
	n := x
	for i := 0; i < 24; i++ {
		n = Tanh(g, AddScalar(g, n, 0.25))
	}
	sess := NewSession(g)
	sess.SetParallelism(4)
	sess.fusion.Store(false) // keep every intermediate a separate step
	feeds := Feeds{x: tensor.New(64)}
	if _, err := sess.Run1(n, feeds); err != nil {
		t.Fatal(err)
	}
	gets0, hits0 := sess.ArenaStats()
	if _, err := sess.Run1(n, feeds); err != nil {
		t.Fatal(err)
	}
	gets1, hits1 := sess.ArenaStats()
	if gets1 <= gets0 {
		t.Fatalf("second run allocated nothing through the arena: gets %d -> %d", gets0, gets1)
	}
	if hits1 <= hits0 {
		t.Fatalf("parallel executor returned nothing to the arena: hits %d -> %d (gets %d -> %d)",
			hits0, hits1, gets0, gets1)
	}
}

// TestRecursiveAndPlanAgreeOnCounters: both evaluators report the same
// NodesEvaluated for the same fetch-set.
func TestRecursiveAndPlanAgreeOnCounters(t *testing.T) {
	g := New()
	x := Placeholder(g, "x", []int{2})
	a := Tanh(g, x)
	b := Add(g, a, a) // shared subgraph: a evaluates once
	sess := NewSession(g)
	feeds := Feeds{x: tensor.FromSlice([]float64{1, 2}, 2)}
	if _, err := sess.Run1(b, feeds); err != nil {
		t.Fatal(err)
	}
	planNodes := sess.NodesEvaluated()
	if _, err := sess.RunRecursive([]*Node{b}, feeds); err != nil {
		t.Fatal(err)
	}
	if rec := sess.NodesEvaluated() - planNodes; rec != planNodes {
		t.Fatalf("recursive evaluated %d nodes, plan %d", rec, planNodes)
	}
}
