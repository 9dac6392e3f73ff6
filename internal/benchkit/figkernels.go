package benchkit

import (
	"fmt"
	"runtime"

	"rlgraph/internal/envs"
	"rlgraph/internal/exec"
	"rlgraph/internal/tensor"
)

// KernelMatMulResult compares one square matmul size across the seed naive
// kernel, the cache-blocked serial kernel, and the parallel blocked kernel.
type KernelMatMulResult struct {
	Size int `json:"size"`
	// NaiveNsOp is the seed triple-loop kernel (MatMulNaive).
	NaiveNsOp float64 `json:"naive_ns_op"`
	// BlockedNsOp is the blocked kernel pinned to one worker.
	BlockedNsOp float64 `json:"blocked_ns_op"`
	// ParallelNsOp is the blocked kernel at Workers goroutines.
	ParallelNsOp float64 `json:"parallel_ns_op"`
	// Workers is the kernel parallelism used for ParallelNsOp.
	Workers int `json:"workers"`
	// BlockedSpeedup and ParallelSpeedup are vs NaiveNsOp.
	BlockedSpeedup  float64 `json:"blocked_speedup"`
	ParallelSpeedup float64 `json:"parallel_speedup"`
}

// KernelFusedResult compares one fused elementwise kernel against the
// composed two-op sequence it replaces, on flat same-shape operands.
type KernelFusedResult struct {
	Kernel        string  `json:"kernel"`
	Elems         int     `json:"elems"`
	ComposedNsOp  float64 `json:"composed_ns_op"`
	FusedNsOp     float64 `json:"fused_ns_op"`
	Speedup       float64 `json:"speedup"`
	AllocsPerOpOn float64 `json:"fused_allocs_op"`
}

// KernelReuseResult measures allocation pressure of the dqn-update plan with
// the session arena on vs off.
type KernelReuseResult struct {
	Workload string `json:"workload"`
	Iters    int    `json:"iters"`
	// AllocsOffOp / AllocsOnOp are heap allocations per Execute.
	AllocsOffOp float64 `json:"allocs_off_op"`
	AllocsOnOp  float64 `json:"allocs_on_op"`
	// BytesOffOp / BytesOnOp are heap bytes per Execute.
	BytesOffOp float64 `json:"bytes_off_op"`
	BytesOnOp  float64 `json:"bytes_on_op"`
	// ArenaHitRate is pool hits / arena gets over the reuse-on phase.
	ArenaHitRate float64 `json:"arena_hit_rate"`
}

// KernelBenchReport is the full kernel-layer benchmark output
// (BENCH_kernels.json payload).
type KernelBenchReport struct {
	// Gomaxprocs records the machine's usable CPUs: the parallel-speedup
	// acceptance gate only applies when it is >= 4.
	Gomaxprocs int                  `json:"gomaxprocs"`
	MatMul     []KernelMatMulResult `json:"matmul"`
	Fused      []KernelFusedResult  `json:"fused"`
	Reuse      KernelReuseResult    `json:"reuse"`
}

// matmulIters shrinks the timed-iteration count with the O(n^3) cost so every
// size's batch stays in the same wall-clock ballpark.
func matmulIters(base, size int) int {
	scale := size / 64
	it := base / (scale * scale * scale)
	if it < 1 {
		it = 1
	}
	return it
}

// KernelBench measures the tensor kernel layer: blocked/parallel matmul vs
// the seed naive kernel at each size, fused elementwise kernels vs their
// composed forms, and dqn-update allocation pressure with plan-level buffer
// reuse on vs off. The kernel parallelism setting is restored on return.
func KernelBench(sizes []int, matmulBase, fusedIters, reuseIters int) (*KernelBenchReport, error) {
	rep := &KernelBenchReport{Gomaxprocs: runtime.GOMAXPROCS(0)}
	defer tensor.SetKernelParallelism(0)

	// --- matmul: naive vs blocked-serial vs blocked-parallel --------------
	for _, size := range sizes {
		a, b := tensor.Ones(size, size), tensor.Ones(size, size)
		d := a.Data()
		for i := range d {
			d[i] = float64(i%7) - 3
		}
		iters := matmulIters(matmulBase, size)

		naiveNs, err := timeRuns(iters, func() error { tensor.MatMulNaive(a, b); return nil })
		if err != nil {
			return nil, fmt.Errorf("benchkit: matmul naive %d: %w", size, err)
		}
		tensor.SetKernelParallelism(1)
		blockedNs, err := timeRuns(iters, func() error { tensor.MatMul(a, b); return nil })
		if err != nil {
			return nil, fmt.Errorf("benchkit: matmul blocked %d: %w", size, err)
		}
		workers := runtime.GOMAXPROCS(0)
		tensor.SetKernelParallelism(workers)
		parNs, err := timeRuns(iters, func() error { tensor.MatMul(a, b); return nil })
		if err != nil {
			return nil, fmt.Errorf("benchkit: matmul parallel %d: %w", size, err)
		}
		rep.MatMul = append(rep.MatMul, KernelMatMulResult{
			Size: size, NaiveNsOp: naiveNs, BlockedNsOp: blockedNs,
			ParallelNsOp: parNs, Workers: workers,
			BlockedSpeedup:  naiveNs / blockedNs,
			ParallelSpeedup: naiveNs / parNs,
		})
	}

	// --- fused elementwise vs composed ------------------------------------
	{
		const elems = 1 << 16
		x, y := tensor.New(elems), tensor.New(elems)
		xd, yd := x.Data(), y.Data()
		for i := range xd {
			xd[i] = float64(i%11) - 5.5
			yd[i] = float64(i%13) - 6
		}
		cases := []struct {
			name     string
			composed func() *tensor.Tensor
			fused    func() *tensor.Tensor
		}{
			{"AddScaled", // a + s*b
				func() *tensor.Tensor { return tensor.Add(x, tensor.Scale(y, 0.5)) },
				func() *tensor.Tensor { return tensor.AddScaled(x, y, 0.5) }},
			{"MulAdd", // a + b*c
				func() *tensor.Tensor { return tensor.Add(x, tensor.Mul(y, x)) },
				func() *tensor.Tensor { return tensor.MulAdd(x, y, x) }},
			{"ReluBackward", // gy * reluGrad(x)
				func() *tensor.Tensor { return tensor.Mul(y, tensor.ReluGrad(x)) },
				func() *tensor.Tensor { return tensor.ReluBackward(y, x) }},
		}
		for _, c := range cases {
			compNs, err := timeRuns(fusedIters, func() error { c.composed(); return nil })
			if err != nil {
				return nil, fmt.Errorf("benchkit: fused %s composed: %w", c.name, err)
			}
			fusedNs, err := timeRuns(fusedIters, func() error { c.fused(); return nil })
			if err != nil {
				return nil, fmt.Errorf("benchkit: fused %s: %w", c.name, err)
			}
			rep.Fused = append(rep.Fused, KernelFusedResult{
				Kernel: c.name, Elems: elems,
				ComposedNsOp: compNs, FusedNsOp: fusedNs,
				Speedup:       compNs / fusedNs,
				AllocsPerOpOn: allocsPerOp(fusedIters, func() { c.fused() }),
			})
		}
	}

	// --- dqn-update allocations: buffer reuse on vs off -------------------
	{
		measure := func(reuseOn bool) (allocs, bytes, hitRate float64, err error) {
			env := envs.NewGridWorld(4, 1)
			agent, err := BuildAgent(DuelingDQNConfig("static", featureNet(), 1), env)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("benchkit: reuse build: %w", err)
			}
			if err := seedMemory(agent, env, 512); err != nil {
				return 0, 0, 0, fmt.Errorf("benchkit: reuse seed: %w", err)
			}
			se := agent.Executor().(*exec.StaticExecutor)
			se.SetBufferReuse(reuseOn)
			batch := tensor.Scalar(32)
			run := func() error { _, err := se.Execute("update_from_memory", batch); return err }
			// Warm the plan cache and (when on) the arena pools.
			for i := 0; i < 3; i++ {
				if err := run(); err != nil {
					return 0, 0, 0, err
				}
			}
			g0, h0 := se.Session().ArenaStats()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < reuseIters; i++ {
				if err := run(); err != nil {
					return 0, 0, 0, err
				}
			}
			runtime.ReadMemStats(&after)
			g1, h1 := se.Session().ArenaStats()
			if gets := g1 - g0; gets > 0 {
				hitRate = float64(h1-h0) / float64(gets)
			}
			return float64(after.Mallocs-before.Mallocs) / float64(reuseIters),
				float64(after.TotalAlloc-before.TotalAlloc) / float64(reuseIters),
				hitRate, nil
		}
		offAllocs, offBytes, _, err := measure(false)
		if err != nil {
			return nil, err
		}
		onAllocs, onBytes, hitRate, err := measure(true)
		if err != nil {
			return nil, err
		}
		rep.Reuse = KernelReuseResult{
			Workload: "dqn-update", Iters: reuseIters,
			AllocsOffOp: offAllocs, AllocsOnOp: onAllocs,
			BytesOffOp: offBytes, BytesOnOp: onBytes,
			ArenaHitRate: hitRate,
		}
	}

	return rep, nil
}

// allocsPerOp reports heap allocations per call of fn.
func allocsPerOp(iters int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}
