package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlgraph/internal/tensor"
)

// tensorT shortens runner literals in this file.
type tensorT = tensor.Tensor

// swapRunner scales its input by an atomically read factor — a stand-in for
// an executor whose weights are hot-swapped through Barrier.
type swapRunner struct {
	scale atomic.Int64 // factor * 1000
	ver   atomic.Int64
	// inFlight is set for the duration of every Runner call so tests can
	// assert barriers never overlap a batch.
	inFlight atomic.Bool
	overlap  atomic.Bool
}

func newSwapRunner() *swapRunner {
	r := &swapRunner{}
	r.scale.Store(1000)
	return r
}

func (r *swapRunner) run(batch *tensorT) (*tensorT, error) {
	r.inFlight.Store(true)
	defer r.inFlight.Store(false)
	time.Sleep(50 * time.Microsecond) // widen the window a barrier could race into
	out := batch.Clone()
	f := float64(r.scale.Load()) / 1000
	for i := range out.Data() {
		out.Data()[i] *= f
	}
	return out, nil
}

// swap installs a new scale+version; called only through Service.Barrier.
func (r *swapRunner) swap(scale float64, v int64) func() error {
	return func() error {
		if r.inFlight.Load() {
			r.overlap.Store(true)
		}
		r.scale.Store(int64(scale * 1000))
		r.ver.Store(v)
		return nil
	}
}

// TestBarrierSwapsBetweenBatches drives load while repeatedly swapping the
// runner's "weights" and checks (a) no swap ever overlaps a Runner call,
// (b) every response is consistent with the version it is stamped with —
// the between-batches atomicity the fleet's hot-swap relies on.
func TestBarrierSwapsBetweenBatches(t *testing.T) {
	r := newSwapRunner()
	s := New(r.run, Config{
		MaxBatch:     8,
		FlushLatency: 100 * time.Microsecond,
		ElemShape:    []int{1},
		Version:      r.ver.Load,
	})
	defer s.Close()

	// Version v serves scale v+1 (v0 -> 1x, v1 -> 2x, ...).
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var bad atomic.Int64
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				in := float64(i)
				out, ver, err := s.ActVersion(obsOf(in), time.Time{})
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if want := in * float64(ver+1); out.Data()[0] != want {
					bad.Add(1)
					t.Errorf("stamped v%d but out=%v (in=%v, want %v)", ver, out.Data()[0], in, want)
					return
				}
			}
		}(c)
	}
	for v := int64(1); v <= 20; v++ {
		if err := s.Barrier(r.swap(float64(v+1), v)); err != nil {
			t.Fatalf("barrier swap %d: %v", v, err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if r.overlap.Load() {
		t.Fatal("a barrier ran while a Runner call was in flight")
	}
	if bad.Load() > 0 {
		t.Fatalf("%d responses disagreed with their version stamp", bad.Load())
	}
	if got := s.Metrics().Failed; got != 0 {
		t.Fatalf("unexpected failures: %d", got)
	}
}

// TestBarrierUnderLoadLandsWithinOneBatch: with the queue never empty, a
// pending barrier still runs as soon as the batch in flight returns — the
// batcher does not start another batch first.
func TestBarrierUnderLoadLandsWithinOneBatch(t *testing.T) {
	g := newGatedRunner()
	var entries atomic.Int64
	s := New(func(b *tensorT) (*tensorT, error) {
		entries.Add(1)
		return g.run(b)
	}, Config{MaxBatch: 1, ElemShape: []int{1}})
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Act(obsOf(1), time.Time{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	waitEntered(t, g) // batch 1 is in flight, three callers are queued
	waitFor(t, "callers queued", func() bool { return s.QueueDepth() == 3 })

	ranAfter := make(chan int64, 1)
	go s.Barrier(func() error { ranAfter <- entries.Load(); return nil })
	time.Sleep(50 * time.Millisecond) // let the barrier reach the batcher's door
	g.gate <- struct{}{}              // batch 1 returns
	select {
	case n := <-ranAfter:
		if n != 1 {
			t.Errorf("the barrier ran after %d batches, want 1: it waited behind queued requests", n)
		}
	case <-time.After(5 * time.Second):
		t.Error("the barrier never ran")
	}
	close(stop)
	close(g.gate)
	wg.Wait()
}

// TestBarrierAfterCloseReturnsErrClosed: a barrier submitted to a drained
// service must not hang.
func TestBarrierAfterCloseReturnsErrClosed(t *testing.T) {
	s := New(func(b *tensorT) (*tensorT, error) { return b.Clone(), nil }, Config{ElemShape: []int{1}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Barrier(func() error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestBarrierPanicIsContained: a panicking swap must fail the Barrier call,
// not kill the batcher.
func TestBarrierPanicIsContained(t *testing.T) {
	s := New(func(b *tensorT) (*tensorT, error) { return b.Clone(), nil }, Config{ElemShape: []int{1}})
	defer s.Close()
	if err := s.Barrier(func() error { panic("bad snapshot") }); err == nil {
		t.Fatal("expected an error from a panicking barrier")
	}
	if _, err := s.Act(obsOf(1), time.Time{}); err != nil {
		t.Fatalf("service dead after barrier panic: %v", err)
	}
}

// TestRunnerPanicFailsBatchOnly: a panicking Runner fails its batch with an
// error instead of crashing the process, and the service keeps serving.
func TestRunnerPanicFailsBatchOnly(t *testing.T) {
	var boom atomic.Bool
	s := New(func(b *tensorT) (*tensorT, error) {
		if boom.Load() {
			panic("model exploded")
		}
		return b.Clone(), nil
	}, Config{ElemShape: []int{1}})
	defer s.Close()

	boom.Store(true)
	if _, err := s.Act(obsOf(1), time.Time{}); err == nil {
		t.Fatal("expected the panicking batch to fail")
	}
	boom.Store(false)
	if _, err := s.Act(obsOf(2), time.Time{}); err != nil {
		t.Fatalf("service did not recover: %v", err)
	}
	m := s.Metrics()
	if m.Failed != 1 || m.Completed != 1 {
		t.Fatalf("Failed=%d Completed=%d, want 1/1", m.Failed, m.Completed)
	}
}

// TestActShutdownRaceNeverHangs is the regression test for Act racing
// Shutdown: under -race, many zero-deadline Acts race service shutdowns;
// every call must return promptly (result or ErrClosed) and the exactly-once
// accounting identity must hold. Before the await/s.done hardening a request
// slipping past the drain could block its caller forever.
func TestActShutdownRaceNeverHangs(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := New(func(b *tensorT) (*tensorT, error) {
			time.Sleep(time.Duration(rand.Intn(200)) * time.Microsecond)
			return b.Clone(), nil
		}, Config{MaxBatch: 4, FlushLatency: 100 * time.Microsecond, QueueDepth: 16, ElemShape: []int{1}})

		const clients = 8
		var wg sync.WaitGroup
		returned := make([]atomic.Bool, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; ; i++ {
					_, err := s.Act(obsOf(float64(i)), time.Time{})
					if err != nil {
						if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrQueueFull) {
							t.Errorf("round %d client %d: unexpected error %v", round, c, err)
						}
						if errors.Is(err, ErrClosed) {
							returned[c].Store(true)
							return
						}
					}
				}
			}(c)
		}
		// Let traffic build, then shut down mid-flight — alternating between
		// graceful drain and abrupt close to cover both abandonment paths.
		time.Sleep(time.Duration(100+rand.Intn(400)) * time.Microsecond)
		if round%2 == 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if err := s.Shutdown(ctx); err != nil {
				t.Fatalf("round %d: shutdown: %v", round, err)
			}
			cancel()
		} else {
			// Close abandons any still-queued requests; the "abandoned N"
			// error is the documented report of that, not a failure.
			_ = s.Close()
		}

		// Every client must observe ErrClosed and exit promptly.
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(5 * time.Second):
			stuck := 0
			for c := range returned {
				if !returned[c].Load() {
					stuck++
				}
			}
			t.Fatalf("round %d: %d clients hung after shutdown completed", round, stuck)
		}
		m := s.Metrics()
		if m.Admitted != m.Completed+m.DeadlineMisses+m.Failed {
			t.Fatalf("round %d: accounting: Admitted=%d != Completed=%d + Misses=%d + Failed=%d",
				round, m.Admitted, m.Completed, m.DeadlineMisses, m.Failed)
		}
	}
}
