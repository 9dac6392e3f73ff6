package raysim

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// halfSource makes every Float64 draw exactly 0.5, so each full-jitter draw
// is half its window.
type halfSource struct{}

func (halfSource) Int63() int64 { return 1 << 62 }
func (halfSource) Seed(int64)   {}

// countingRespawn fails its first fails calls, then succeeds.
func countingRespawn(fails int) (respawn func() error, calls *int) {
	calls = new(int)
	return func() error {
		*calls++
		if *calls <= fails {
			return errors.New("respawn failed")
		}
		return nil
	}, calls
}

// TestSupervisorBudgetSpentAfterNAttempts: a respawn that always fails is
// tried exactly Budget times, and a spent member never calls it again.
func TestSupervisorBudgetSpentAfterNAttempts(t *testing.T) {
	for _, budget := range []int{-1, 0, 1, 3} {
		s := NewSupervisor(Policy{Budget: budget}, 1)
		m := s.Member(rand.New(rand.NewSource(1)))
		respawn, calls := countingRespawn(1 << 30)
		if m.Restart(context.Background(), respawn) {
			t.Fatalf("budget %d: failing respawn reported success", budget)
		}
		want := max(budget, 0)
		if *calls != want || m.Attempts() != int64(want) {
			t.Fatalf("budget %d: %d calls, %d attempts, want %d", budget, *calls, m.Attempts(), want)
		}
		if m.Restart(context.Background(), respawn) || *calls != want {
			t.Fatalf("budget %d: spent member called respawn again (%d calls)", budget, *calls)
		}
		if s.Restarts() != 0 {
			t.Fatalf("budget %d: %d restarts counted, want 0", budget, s.Restarts())
		}
	}
}

// TestSupervisorRetriesFailingRespawn: failed respawns are retried inside
// one Restart while the budget lasts, and only successes count as restarts.
func TestSupervisorRetriesFailingRespawn(t *testing.T) {
	s := NewSupervisor(Policy{Budget: 4}, 1)
	m := s.Member(rand.New(rand.NewSource(1)))
	respawn, calls := countingRespawn(2)
	if !m.Restart(context.Background(), respawn) {
		t.Fatal("respawn that succeeds on its third call reported failure")
	}
	if *calls != 3 || m.Attempts() != 3 || s.Restarts() != 1 {
		t.Fatalf("%d calls, %d attempts, %d restarts, want 3, 3, 1", *calls, m.Attempts(), s.Restarts())
	}
	if !m.Restart(context.Background(), respawn) || s.Restarts() != 2 {
		t.Fatalf("last attempt of the budget: %d restarts, want 2", s.Restarts())
	}
	if m.Restart(context.Background(), respawn) || *calls != 4 {
		t.Fatalf("restart past the budget: %d calls, want 4", *calls)
	}
}

// TestSupervisorWindowDoublesToCap reads the window sequence from the draws:
// with every uniform draw at 0.5, the k-th draw is half of min(w·2^k, cap),
// and Reset starts the sequence over.
func TestSupervisorWindowDoublesToCap(t *testing.T) {
	const w, capW = time.Millisecond, 8 * time.Millisecond
	m := NewSupervisor(Policy{Budget: 10, Backoff: w, Cap: capW}, 1).Member(rand.New(halfSource{}))
	want := []time.Duration{w, 2 * w, 4 * w, capW, capW, capW}
	for k, win := range want {
		if d := m.next(); d != win/2 {
			t.Fatalf("draw %d = %v, want %v (window %v)", k, d, win/2, win)
		}
	}
	m.Reset()
	if d := m.next(); d != w/2 {
		t.Fatalf("draw after Reset = %v, want %v", d, w/2)
	}
}

// TestSupervisorCancelAbortsWindow: a cancelled ctx ends a restart that is
// sleeping out a one-hour window, without calling respawn. The wall clock
// only bounds the test.
func TestSupervisorCancelAbortsWindow(t *testing.T) {
	m := NewSupervisor(Policy{Budget: 1, Backoff: time.Hour, Cap: time.Hour}, 1).
		Member(rand.New(halfSource{}))
	respawn, calls := countingRespawn(0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- m.Restart(ctx, respawn) }()
	cancel()
	select {
	case ok := <-done:
		if ok || *calls != 0 {
			t.Fatalf("cancelled restart: ok=%v, %d respawn calls", ok, *calls)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not abort the backoff sleep")
	}
	// Without a window there is no sleep to abort: a done ctx still wins.
	m = NewSupervisor(Policy{Budget: 1}, 1).Member(rand.New(rand.NewSource(1)))
	if m.Restart(ctx, respawn) || *calls != 0 {
		t.Fatalf("restart under a done ctx called respawn %d times", *calls)
	}
}

// TestSupervisorLostYieldsRootCause: each Lost reports the members left,
// the member whose loss empties the pool stops the run with its cause, and
// Degraded runs from the first loss.
func TestSupervisorLostYieldsRootCause(t *testing.T) {
	s := NewSupervisor(Policy{}, 2)
	if s.Degraded() != 0 {
		t.Fatalf("degraded %v before any loss", s.Degraded())
	}
	ctx, stop := context.WithCancelCause(context.Background())
	defer stop(nil)
	errA, errB := errors.New("first member"), errors.New("last member")
	for k, cause := range []error{errA, errB} {
		left := s.Lost()
		if left != 1-k {
			t.Fatalf("loss %d: %d left, want %d", k, left, 1-k)
		}
		if left == 0 {
			stop(cause)
		}
		if s.Degraded() <= 0 {
			t.Fatalf("loss %d: degraded %v, want > 0", k, s.Degraded())
		}
	}
	if got := context.Cause(ctx); !errors.Is(got, errB) {
		t.Fatalf("run stopped with %v, want the last member's cause", got)
	}
}

// TestFullJitterMapsUniformDraws pins the pure mapping: u ∈ [0,1) scales the
// backoff window linearly, and degenerate windows stay at zero.
func TestFullJitterMapsUniformDraws(t *testing.T) {
	if got := fullJitter(time.Second, 0); got != 0 {
		t.Fatalf("u=0: got %v, want 0", got)
	}
	if got := fullJitter(time.Second, 0.5); got != 500*time.Millisecond {
		t.Fatalf("u=0.5: got %v, want 500ms", got)
	}
	if got := fullJitter(0, 0.9); got != 0 {
		t.Fatalf("zero window: got %v, want 0", got)
	}
	if got := fullJitter(-time.Second, 0.9); got != 0 {
		t.Fatalf("negative window: got %v, want 0", got)
	}
}

// TestJitterDelaySpreads asserts that members failing together restart at
// points spread across the backoff window rather than synchronized at its
// edge — the thundering-herd property. Each of 400 members, seeded from its
// index as the executors seed theirs, draws its first delay from a 1s
// window; the probability of all draws missing the first or last quarter is
// (3/4)^400, i.e. never.
func TestJitterDelaySpreads(t *testing.T) {
	const window = time.Second
	const n = 400
	s := NewSupervisor(Policy{Budget: 1, Backoff: window, Cap: window}, n)
	var min, max time.Duration = window, 0
	distinct := make(map[time.Duration]struct{}, n)
	for i := 0; i < n; i++ {
		d := s.Member(rand.New(rand.NewSource(int64(i)))).next()
		if d < 0 || d >= window {
			t.Fatalf("draw %d = %v outside [0, %v)", i, d, window)
		}
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
		distinct[d] = struct{}{}
	}
	if min >= window/4 {
		t.Fatalf("no draw in the first quarter of the window (min=%v): restarts still synchronized low", min)
	}
	if max <= 3*window/4 {
		t.Fatalf("no draw in the last quarter of the window (max=%v): restarts still synchronized high", max)
	}
	if len(distinct) < n/2 {
		t.Fatalf("only %d distinct delays out of %d draws: jitter looks deterministic", len(distinct), n)
	}
}
