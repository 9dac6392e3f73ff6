package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Kernel parallelism controls how many goroutines the blocked matmul kernels
// may use. The contract (see DESIGN.md §5.7):
//
//   - SetKernelParallelism(n) with n >= 1 caps kernel workers at n; n <= 0
//     resets to runtime.NumCPU(). The setting is global and may be changed at
//     any time; in-flight kernels finish with the value they started with.
//   - Parallel execution never changes results: work is partitioned over
//     output row ranges, so every output element is still produced by exactly
//     one goroutine with the same rounding sequence as the serial kernel.
//   - Below a size threshold kernels run serially on the calling goroutine,
//     so small ops never pay synchronization costs.
var kernelPar atomic.Int32

// SetKernelParallelism caps the number of goroutines tensor kernels use.
// n <= 0 restores the default (runtime.NumCPU()).
func SetKernelParallelism(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	kernelPar.Store(int32(n))
	ensureKernelWorkers(n - 1)
}

// KernelParallelism reports the current kernel worker cap.
func KernelParallelism() int {
	if v := kernelPar.Load(); v > 0 {
		return int(v)
	}
	return runtime.NumCPU()
}

// kernelTasks feeds the persistent worker pool. Handoff is unbuffered: if no
// worker is free to receive, parallelFor falls back to spawning a fresh
// goroutine, so submission never blocks and never deadlocks regardless of
// pool size.
var (
	kernelTasks   = make(chan func())
	kernelWorkers int32 // workers spawned so far (atomic)
	workerMu      sync.Mutex
)

func ensureKernelWorkers(n int) {
	if n <= 0 || int(atomic.LoadInt32(&kernelWorkers)) >= n {
		return
	}
	workerMu.Lock()
	for int(kernelWorkers) < n {
		kernelWorkers++
		go func() {
			for f := range kernelTasks {
				f()
			}
		}()
	}
	workerMu.Unlock()
}

// parallelFor runs fn(0..parts-1) concurrently, executing part 0 on the
// calling goroutine, and returns when all parts finished. parts <= 1 runs
// inline.
func parallelFor(parts int, fn func(part int)) {
	if parts <= 1 {
		fn(0)
		return
	}
	ensureKernelWorkers(KernelParallelism() - 1)
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for p := 1; p < parts; p++ {
		task := func(p int) func() {
			return func() { defer wg.Done(); fn(p) }
		}(p)
		select {
		case kernelTasks <- task:
		default:
			go task()
		}
	}
	fn(0)
	wg.Wait()
}

// matmulParallelThreshold is the minimum m*k*n multiply-add count before a
// matmul fans out to the worker pool: the measured break-even of two parts
// against one on the AVX2 micro-kernel, about 300 µs of it (EXPERIMENTS.md).
// Below it, waking a parked worker costs more than the half it takes over.
const matmulParallelThreshold = 1 << 22

// matmulParts picks the row-partition count for an [m,k]x[k,n] product.
func matmulParts(m, k, n int) int {
	if m*k*n < matmulParallelThreshold {
		return 1
	}
	parts := KernelParallelism()
	// Keep at least 8 rows per part so panel tiling stays effective.
	if max := m / 8; parts > max {
		parts = max
	}
	if parts < 1 {
		parts = 1
	}
	return parts
}
