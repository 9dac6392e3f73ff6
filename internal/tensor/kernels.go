package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Kernel parallelism controls how many goroutines the matmul, conv and
// optimizer kernels, and the compiled plans that call them, may use. The
// contract (see DESIGN.md §5.7):
//
//   - SetKernelParallelism(n) with n >= 1 caps kernel workers at n; n <= 0
//     resets to runtime.GOMAXPROCS(0). The setting is global and may be
//     changed at any time; in-flight kernels finish with the value they
//     started with.
//   - A kernel that forks splits its work into chunks whose count depends on
//     the operand shapes (and the cap) alone. The caller and any pool worker
//     that wakes in time claim chunks from an atomic counter, so a late worker
//     takes fewer chunks, or none, instead of holding the caller up.
//   - Parallel execution never changes results: chunks cover disjoint output
//     elements, and each element is produced by exactly one chunk with the
//     same rounding sequence as the serial kernel, whichever goroutine runs it.
//   - Below a size threshold, or with a cap of 1, kernels run serially on the
//     calling goroutine, so small ops never pay synchronization costs.
//   - One pool serves the kernels and the parallel plans, whose scheduler
//     loops are the chunks of one fork. A chunk's panic is re-raised on the
//     fork's caller once every chunk that started has finished.
var kernelPar atomic.Int32

// SetKernelParallelism caps the number of goroutines tensor kernels and
// parallel plans use; below 2, plans run serially unless a session forces
// them. n <= 0 restores the default (runtime.GOMAXPROCS(0)).
func SetKernelParallelism(n int) {
	kernelPar.Store(int32(max(n, 0)))
	ensureKernelWorkers(KernelParallelism() - 1)
}

// KernelParallelism reports the current kernel worker cap.
func KernelParallelism() int {
	if v := kernelPar.Load(); v > 0 {
		return int(v)
	}
	return runtime.GOMAXPROCS(0)
}

// kernelJobs feeds the persistent worker pool. Handoff is unbuffered and
// offered with a non-blocking send, so a job only ever reaches a worker that
// is parked waiting for one; submission never blocks and never deadlocks
// regardless of pool size.
var (
	kernelJobs    = make(chan *kernelJob)
	kernelWorkers int32 // workers spawned so far (atomic)
	openJob       atomic.Pointer[kernelJob]
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
			for j := range kernelJobs {
				j.run()
			}
		}()
	}
	workerMu.Unlock()
}

// kernelJob is one fork: fn over chunks [0, chunks), claimed through next by
// whoever runs the job. pending counts the chunks not yet finished; panicked
// keeps the first panic a chunk raised.
type kernelJob struct {
	fn       func(chunk int)
	chunks   int32
	next     atomic.Int32
	pending  sync.WaitGroup
	panicked atomic.Pointer[any]
}

// run claims and runs chunks until none is left.
func (j *kernelJob) run() {
	for {
		c := j.next.Add(1) - 1
		if c >= j.chunks {
			return
		}
		j.runChunk(int(c))
	}
}

// runChunk runs one chunk; a panic is kept for parallelFor's caller instead
// of killing whichever goroutine ran it.
func (j *kernelJob) runChunk(c int) {
	defer func() {
		if r := recover(); r != nil {
			v := r // boxed only when a chunk panicked
			j.panicked.CompareAndSwap(nil, &v)
		}
		j.pending.Done()
	}()
	j.fn(c)
}

// parallelFor runs fn(0..chunks-1), each chunk exactly once, and returns when
// all have finished. It offers the job to up to KernelParallelism()-1 parked
// workers, then claims chunks itself: once the counter runs out it waits only
// for chunks another goroutine has started, and with no worker free it runs
// every chunk. chunks <= 1 runs inline. The first panic of a chunk, on any
// goroutine, is re-raised here once all chunks have finished.
func parallelFor(chunks int, fn func(chunk int)) {
	if chunks <= 1 {
		fn(0)
		return
	}
	helpers := min(KernelParallelism(), chunks) - 1
	ensureKernelWorkers(helpers)
	j := &kernelJob{fn: fn, chunks: int32(chunks)}
	j.pending.Add(chunks)
offer:
	for ; helpers > 0; helpers-- {
		select {
		case kernelJobs <- j:
		default:
			openJob.Store(j) // no worker is parked: WaitOrHelp may join later
			break offer
		}
	}
	j.run()
	j.pending.Wait()
	openJob.CompareAndSwap(j, nil)
	if r := j.panicked.Load(); r != nil {
		panic(*r)
	}
}

// ParallelFor is parallelFor for the plan executor, which forks its scheduler
// loops on the kernels' pool.
func ParallelFor(chunks int, fn func(chunk int)) { parallelFor(chunks, fn) }

// WaitOrHelp returns once wake is signalled, or after running chunks of a
// fork that is under way or offered meanwhile: a goroutine waiting for other
// work lends its core to the kernels instead of parking beside them.
func WaitOrHelp(wake <-chan struct{}) {
	if j := openJob.Load(); j != nil && j.next.Load() < j.chunks {
		j.run()
		return
	}
	select {
	case j := <-kernelJobs:
		j.run()
	case <-wake:
	}
}

// matmulParallelThreshold is the minimum multiply-add count before a kernel
// forks: the measured break-even of two parts against one on the AVX2
// micro-kernel, about 300 µs of it (EXPERIMENTS.md). Below it, waking a
// parked worker costs more than the share it takes over.
const matmulParallelThreshold = 1 << 22

// forks reports whether a kernel of madds multiply-adds splits into chunks.
func forks(madds int) bool {
	return madds >= matmulParallelThreshold && KernelParallelism() > 1
}

// matmulChunks picks the chunk count for an [m,k]x[k,n] product: groups of at
// least 8 output rows, so panel tiling stays effective, up to 4 per worker.
func matmulChunks(m, k, n int) int {
	if !forks(m * k * n) {
		return 1
	}
	return max(1, min(m/8, 4*KernelParallelism()))
}
