package serve

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"rlgraph/internal/tensor"
)

// TestDeadlineExpiresWhileQueued: a request whose deadline lapses while it
// waits behind an in-flight batch returns ErrDeadline promptly and is evicted
// by the pre-assembly sweep instead of being executed.
func TestDeadlineExpiresWhileQueued(t *testing.T) {
	g := newGatedRunner()
	s := New(g.run, Config{MaxBatch: 1, FlushLatency: time.Microsecond, elemShape: []int{2}})
	defer s.Close()

	first := make(chan error, 1)
	go func() { _, err := s.Act(obsOf(1, 2), time.Time{}); first <- err }()
	waitEntered(t, g) // first request occupies the batcher

	startAt := time.Now()
	_, err := s.Act(obsOf(3, 4), time.Now().Add(30*time.Millisecond))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	if waited := time.Since(startAt); waited > time.Second {
		t.Fatalf("deadline return took %v; caller should not wait for the runner", waited)
	}

	close(g.gate)
	if err := <-first; err != nil {
		t.Fatalf("first request: %v", err)
	}
	// The batcher eventually sweeps the expired request out of its batch.
	waitFor(t, "eviction sweep", func() bool { return s.Metrics().Evicted == 1 })
	m := s.Metrics()
	if m.DeadlineMisses != 1 || m.Completed != 1 {
		t.Fatalf("Misses=%d Completed=%d, want 1/1", m.DeadlineMisses, m.Completed)
	}
	// The evicted request never reached the runner: only the first ran.
	if m.Batches != 1 {
		t.Fatalf("Batches=%d, want 1 (expired request must not be executed)", m.Batches)
	}
}

// TestDeadlineExpiresInFlight: a caller whose batch is already executing gets
// ErrDeadline the moment the deadline passes; the row the runner later
// produces is counted as a late result.
func TestDeadlineExpiresInFlight(t *testing.T) {
	release := make(chan struct{})
	run := func(b *tensor.Tensor) (*tensor.Tensor, error) {
		<-release
		return b.Clone(), nil
	}
	s := New(run, Config{MaxBatch: 1, FlushLatency: time.Microsecond, elemShape: []int{2}})
	defer s.Close()

	startAt := time.Now()
	_, err := s.Act(obsOf(1, 2), time.Now().Add(25*time.Millisecond))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	if waited := time.Since(startAt); waited > time.Second {
		t.Fatalf("caller waited %v for an in-flight batch past its deadline", waited)
	}
	close(release)
	waitFor(t, "late result accounting", func() bool { return s.Metrics().LateResults == 1 })
	m := s.Metrics()
	if m.DeadlineMisses != 1 || m.Completed != 0 {
		t.Fatalf("Misses=%d Completed=%d, want 1/0", m.DeadlineMisses, m.Completed)
	}
}

// TestDeadlineDuringDrain: Shutdown still answers the queue — expired
// requests are evicted with ErrDeadline, live ones are served.
func TestDeadlineDuringDrain(t *testing.T) {
	g := newGatedRunner()
	s := New(g.run, Config{MaxBatch: 1, FlushLatency: time.Microsecond, elemShape: []int{2}})

	first := make(chan error, 1)
	go func() { _, err := s.Act(obsOf(1, 2), time.Time{}); first <- err }()
	waitEntered(t, g)

	expiring := make(chan error, 1)
	go func() { _, err := s.Act(obsOf(3, 4), time.Now().Add(20*time.Millisecond)); expiring <- err }()
	living := make(chan error, 1)
	go func() { _, err := s.Act(obsOf(5, 6), time.Time{}); living <- err }()
	waitFor(t, "both requests queued", func() bool { return s.QueueDepth() == 2 })
	time.Sleep(40 * time.Millisecond) // let the second request's deadline lapse

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	close(g.gate) // drain proceeds

	if err := <-shutdownErr; err != nil {
		t.Fatalf("drain shutdown: %v", err)
	}
	if err := <-first; err != nil {
		t.Fatalf("in-flight request: %v", err)
	}
	if err := <-expiring; !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired-in-drain request: got %v, want ErrDeadline", err)
	}
	if err := <-living; err != nil {
		t.Fatalf("live request during drain: %v", err)
	}
	m := s.Metrics()
	if m.Evicted != 1 || m.Completed != 2 {
		t.Fatalf("Evicted=%d Completed=%d, want 1/2", m.Evicted, m.Completed)
	}
}

// TestShutdownNonEmptyQueueFailsFast: an immediate Close with requests still
// queued fails them with ErrClosed rather than hanging, reports the
// abandonment, and the in-flight batch still completes.
func TestShutdownNonEmptyQueueFailsFast(t *testing.T) {
	g := newGatedRunner()
	s := New(g.run, Config{MaxBatch: 1, FlushLatency: time.Microsecond, QueueDepth: 8, elemShape: []int{2}})

	first := make(chan error, 1)
	go func() { _, err := s.Act(obsOf(1, 2), time.Time{}); first <- err }()
	waitEntered(t, g) // runner holds the batcher; everything else stays queued

	queued := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := s.Act(obsOf(float64(i), 0), time.Time{})
			queued <- err
		}(i)
	}
	waitFor(t, "requests queued", func() bool { return s.QueueDepth() == 2 })

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()

	// The queued callers get ErrClosed promptly even though the runner is
	// still blocked — shutdown must not hang on a non-empty queue.
	for i := 0; i < 2; i++ {
		select {
		case err := <-queued:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("queued request: got %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued request hung through an immediate shutdown")
		}
	}
	err := <-closed
	if err == nil || !strings.Contains(err.Error(), "abandoned 2") {
		t.Fatalf("Close() = %v, want an error reporting 2 abandoned requests", err)
	}

	// New work is refused after close.
	if _, err := s.Act(obsOf(9, 9), time.Time{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Act after close: got %v, want ErrClosed", err)
	}

	// The in-flight batch still completes once the runner returns.
	close(g.gate)
	if err := <-first; err != nil {
		t.Fatalf("in-flight request after close: %v", err)
	}
	m := s.Metrics()
	if m.Failed != 2 || m.Completed != 1 {
		t.Fatalf("Failed=%d Completed=%d, want 2/1", m.Failed, m.Completed)
	}
}

// TestGracefulShutdownDrainsQueue: Shutdown with budget serves everything
// queued before returning.
func TestGracefulShutdownDrainsQueue(t *testing.T) {
	g := newGatedRunner()
	s := New(g.run, Config{MaxBatch: 2, FlushLatency: time.Microsecond, elemShape: []int{2}})

	const n = 5
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := s.Act(obsOf(float64(i), 1), time.Time{})
			done <- err
		}(i)
	}
	waitFor(t, "all requests admitted", func() bool { return s.Metrics().Admitted == n })
	waitEntered(t, g)
	close(g.gate)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatalf("request failed during graceful drain: %v", err)
		}
	}
	if m := s.Metrics(); m.Completed != n {
		t.Fatalf("Completed=%d, want %d", m.Completed, n)
	}
}

// TestBlockedAdmitterReleasedOnClose: a caller blocked in Block-mode
// admission is released with ErrClosed when the service shuts down.
func TestBlockedAdmitterReleasedOnClose(t *testing.T) {
	g := newGatedRunner()
	s := New(g.run, Config{MaxBatch: 1, FlushLatency: time.Microsecond, QueueDepth: 1, Block: true, elemShape: []int{2}})

	first := make(chan error, 1)
	go func() { _, err := s.Act(obsOf(1, 2), time.Time{}); first <- err }()
	waitEntered(t, g)
	second := make(chan error, 1)
	go func() { _, err := s.Act(obsOf(3, 4), time.Time{}); second <- err }()
	waitFor(t, "queue full", func() bool { return s.QueueDepth() == 1 })

	blocked := make(chan error, 1)
	go func() { _, err := s.Act(obsOf(5, 6), time.Time{}); blocked <- err }()
	select {
	case err := <-blocked:
		t.Fatalf("admitter should be blocked, got %v", err)
	case <-time.After(30 * time.Millisecond):
	}

	go s.Close()
	select {
	case err := <-blocked:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked admitter: got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked admitter hung through close")
	}
	close(g.gate)
	<-first
	<-second
}

// TestRecycledDeadlineTimersCarryNoStaleExpiry: deadline timers are pooled,
// so one that fired — or fired while being stopped — for a tight request
// must come back out of the pool silent: a request with a generous deadline
// that inherits it must never see a deadline miss.
func TestRecycledDeadlineTimersCarryNoStaleExpiry(t *testing.T) {
	run := func(b *tensor.Tensor) (*tensor.Tensor, error) {
		time.Sleep(100 * time.Microsecond)
		return b.Clone(), nil
	}
	s := New(run, Config{MaxBatch: 8, FlushLatency: 50 * time.Microsecond, QueueDepth: 256, elemShape: []int{2}})
	defer s.Close()
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 200; i++ {
				// Tight: expires around the time the batch returns, so Stop
				// races the timer firing; either outcome is legitimate.
				tight := time.Duration(50+rng.Intn(200)) * time.Microsecond
				if _, err := s.Act(obsOf(1, 2), time.Now().Add(tight)); err != nil && !errors.Is(err, ErrDeadline) {
					t.Errorf("tight request: %v", err)
					return
				}
				if _, err := s.Act(obsOf(3, 4), time.Now().Add(time.Minute)); err != nil {
					t.Errorf("request with a one-minute deadline: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if m := s.Metrics(); m.DeadlineMisses == 0 {
		t.Fatal("no tight request missed its deadline; the test exercised no fired timer")
	}
}
