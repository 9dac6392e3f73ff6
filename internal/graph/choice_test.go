package graph

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rlgraph/internal/israce"
	"rlgraph/internal/tensor"
)

// wideMatMuls returns a plan of `width` independent [m,k]x[k,n] products of
// one input, summed: its slack is (width-1)·m·k·n multiply-adds.
func wideMatMuls(width, m, k, n int) (*Graph, *Node, Feeds) {
	g := New()
	x := Placeholder(g, "x", []int{m, k})
	var sum *Node
	for i := 0; i < width; i++ {
		w := Const(g, tensor.Full(0.5, k, n))
		y := MatMul(g, x, w)
		if sum == nil {
			sum = y
		} else {
			sum = Add(g, sum, y)
		}
	}
	return g, sum, Feeds{x: tensor.Full(0.25, m, k)}
}

// chainMatMuls returns a plan of `depth` dependent [m,m]x[m,m] products:
// however costly, it has no slack.
func chainMatMuls(depth, m int) (*Graph, *Node, Feeds) {
	g := New()
	x := Placeholder(g, "x", []int{m, m})
	y := x
	for i := 0; i < depth; i++ {
		y = MatMul(g, y, Const(g, tensor.Full(1.0/float64(m), m, m)))
	}
	return g, y, Feeds{x: tensor.Full(0.25, m, m)}
}

// TestPlanChoosesExecutorFromSlack: with two kernel workers a plan runs in
// parallel on its own only when the multiply-adds off its critical path reach
// planParallelThreshold. Its first run is serial and costs it; the choice
// shows from the second run on. With one kernel worker every plan is serial.
func TestPlanChoosesExecutorFromSlack(t *testing.T) {
	defer tensor.SetKernelParallelism(tensor.KernelParallelism())
	type plan struct {
		name     string
		build    func() (*Graph, *Node, Feeds)
		parallel bool
	}
	plans := []plan{
		{"chain", func() (*Graph, *Node, Feeds) { return chainMatMuls(8, 256) }, false},
		{"small wide", func() (*Graph, *Node, Feeds) { return wideMatMuls(8, 32, 64, 64) }, false},
		{"large wide", func() (*Graph, *Node, Feeds) { return wideMatMuls(2, 128, 128, 256) }, true},
	}
	for _, kernels := range []int{1, 2} {
		tensor.SetKernelParallelism(kernels)
		for _, pl := range plans {
			g, fetch, feeds := pl.build()
			sess := NewSession(g)
			for run := 0; run < 3; run++ {
				if _, err := sess.Run1(fetch, feeds); err != nil {
					t.Fatal(err)
				}
			}
			want := 0
			if pl.parallel && kernels > 1 {
				want = 2 // every run after the costing one
			}
			if got := sess.ParallelRuns(); got != want {
				t.Errorf("kernel parallelism %d, %s plan: %d of 3 runs parallel, want %d", kernels, pl.name, got, want)
			}
		}
	}
	// The large wide plan's slack is one product: 2²² multiply-adds, just at
	// the threshold.
	g, fetch, feeds := wideMatMuls(2, 128, 128, 256)
	sess := NewSession(g)
	if _, err := sess.Run1(fetch, feeds); err != nil {
		t.Fatal(err)
	}
	p, err := sess.planFor([]*Node{fetch}, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.cost.Load().slack; got != planParallelThreshold {
		t.Fatalf("slack %d, want %d", got, planParallelThreshold)
	}
}

// TestParallelRunStartsNoGoroutine: a steady-state parallel run forks its
// scheduler loops on the kernel pool, so no goroutine exists during the run
// that did not exist before it, and it allocates no more than a serial run of
// the same plan.
func TestParallelRunStartsNoGoroutine(t *testing.T) {
	defer tensor.SetKernelParallelism(tensor.KernelParallelism())
	tensor.SetKernelParallelism(2)
	var during atomic.Int64
	build := func(parallelism int) (*Session, func()) {
		g, sum, feeds := wideMatMuls(2, 128, 128, 256)
		probe := Stateful(g, "goroutines", []int{}, func([]*tensor.Tensor) (*tensor.Tensor, error) {
			during.Store(int64(runtime.NumGoroutine()))
			return tensor.Scalar(0), nil
		})
		fetch := Add(g, Sum(g, sum), probe)
		sess := NewSession(g)
		sess.SetParallelism(parallelism)
		run := func() {
			if _, err := sess.Run1(fetch, feeds); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			run()
		}
		return sess, run
	}
	par, runPar := build(0)
	before := runtime.NumGoroutine()
	runPar()
	if par.ParallelRuns() == 0 {
		t.Fatal("the plan never ran in parallel")
	}
	if got := int(during.Load()); got > before {
		t.Fatalf("%d goroutines during a parallel run, %d before it", got, before)
	}
	if israce.Enabled {
		return // sync.Pool drops Puts at random under -race
	}
	_, runSer := build(1)
	serial := testing.AllocsPerRun(20, runSer)
	parallel := testing.AllocsPerRun(20, runPar)
	if parallel > serial {
		t.Fatalf("a parallel run makes %.1f allocations, a serial one %.1f", parallel, serial)
	}
}

// panicProbe makes one goroutine of a fork panic: the caller's own, or a
// helper's. Each side marks itself and waits briefly for the other, so that
// both take part before the chosen one panics.
type panicProbe struct {
	onCaller bool
	seen     [2]atomic.Bool // caller, helper
	panicked atomic.Bool
	returned atomic.Bool // the call under test has returned
	late     atomic.Bool // some work ran after that
}

var injected = &struct{ msg string }{"injected"}

func (p *panicProbe) work() {
	if p.returned.Load() {
		p.late.Store(true)
	}
	buf := make([]byte, 8<<10)
	caller := bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("testing.tRunner"))
	side := 1
	if caller {
		side = 0
	}
	p.seen[side].Store(true)
	for deadline := time.Now().Add(50 * time.Millisecond); !p.seen[1-side].Load() && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	if p.seen[1-side].Load() && caller == p.onCaller && p.panicked.CompareAndSwap(false, true) {
		panic(injected)
	}
}

// probeOp is a pure op that runs a panicProbe, directly or inside a fork.
type probeOp struct {
	p    *panicProbe
	fork bool
}

func (o probeOp) Name() string                      { return "PanicProbe" }
func (o probeOp) InferShape([][]int) ([]int, error) { return []int{}, nil }
func (o probeOp) Eval(*RunCtx, []*tensor.Tensor) (*tensor.Tensor, error) {
	if o.fork {
		tensor.ParallelFor(2, func(int) { o.p.work() })
	} else {
		o.p.work()
	}
	return tensor.Scalar(0), nil
}

// TestPanicsReachTheCaller: a panic in a plan step or a forked kernel chunk
// comes out of the call on the caller's goroutine with its original value,
// whichever goroutine raised it; the process survives, and nothing of the
// call runs after it has returned. The serial plan's step forks, so its
// panic can be on a helper; the parallel plan's two steps run on the caller's
// scheduler loop and on a pool worker's.
func TestPanicsReachTheCaller(t *testing.T) {
	defer tensor.SetKernelParallelism(tensor.KernelParallelism())
	tensor.SetKernelParallelism(2)
	calls := map[string]func(p *panicProbe){
		"serial plan": func(p *panicProbe) {
			g := New()
			sess := NewSession(g)
			sess.SetParallelism(1)
			sess.Run1(g.Add(probeOp{p: p, fork: true}), nil)
		},
		"parallel plan": func(p *panicProbe) {
			g := New()
			sum := Add(g, g.Add(probeOp{p: p}), g.Add(probeOp{p: p}))
			sess := NewSession(g)
			sess.SetParallelism(2)
			sess.Run1(sum, nil)
		},
		"parallelFor": func(p *panicProbe) {
			tensor.ParallelFor(2, func(int) { p.work() })
		},
	}
	for _, name := range []string{"serial plan", "parallel plan", "parallelFor"} {
		for _, onCaller := range []bool{true, false} {
			where := map[bool]string{true: "caller", false: "helper"}[onCaller]
			t.Run(name+"/"+where, func(t *testing.T) {
				// A pool worker that was not parked when the fork was offered
				// takes no part; try again until one did.
				for attempt := 0; attempt < 100; attempt++ {
					p := &panicProbe{onCaller: onCaller}
					got := func() (r any) {
						defer func() { r = recover() }()
						calls[name](p)
						return nil
					}()
					p.returned.Store(true)
					if !p.panicked.Load() {
						if got != nil {
							t.Fatalf("recovered %v without an injected panic", got)
						}
						time.Sleep(time.Millisecond)
						continue
					}
					if got != injected {
						t.Fatalf("recovered %v, want the injected value", got)
					}
					time.Sleep(5 * time.Millisecond)
					if p.late.Load() {
						t.Fatal("work of the call ran after it returned")
					}
					return
				}
				t.Fatalf("no attempt had both the caller and a helper in the %s", name)
			})
		}
	}
}

// BenchmarkPlanCrossover is the crossover table behind planParallelThreshold:
// two independent chains of four [32,k]x[k,k] products, summed, so the slack
// is one chain's 4·32·k² multiply-adds, run serially (par=1) and on two
// scheduler loops (par=2) with two kernel workers. Above 2²² a product forks
// on its own, so the serial side uses the second core too.
func BenchmarkPlanCrossover(b *testing.B) {
	defer tensor.SetKernelParallelism(tensor.KernelParallelism())
	tensor.SetKernelParallelism(2)
	for _, k := range []int{32, 64, 91, 128, 181, 256, 362} {
		g := New()
		x := Placeholder(g, "x", []int{32, k})
		var sum *Node
		for c := 0; c < 2; c++ {
			y := x
			for d := 0; d < 4; d++ {
				y = MatMul(g, y, Const(g, tensor.Full(1/float64(k), k, k)))
			}
			if sum == nil {
				sum = y
			} else {
				sum = Add(g, sum, y)
			}
		}
		feeds := Feeds{x: tensor.Full(0.25, 32, k)}
		for _, par := range []int{1, 2} {
			b.Run(fmt.Sprintf("slack=%d/par=%d", 4*32*k*k, par), func(b *testing.B) {
				sess := NewSession(g)
				sess.SetParallelism(par)
				for i := 0; i < b.N; i++ {
					if _, err := sess.Run1(sum, feeds); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
