package distexec

import (
	"testing"
	"time"

	"rlgraph/internal/raysim"
)

// TestFullJitterMapsUniformDraws pins the pure mapping: u ∈ [0,1) scales the
// backoff window linearly, and degenerate windows stay at zero.
func TestFullJitterMapsUniformDraws(t *testing.T) {
	if got := raysim.FullJitter(time.Second, 0); got != 0 {
		t.Fatalf("u=0: got %v, want 0", got)
	}
	if got := raysim.FullJitter(time.Second, 0.5); got != 500*time.Millisecond {
		t.Fatalf("u=0.5: got %v, want 500ms", got)
	}
	if got := raysim.FullJitter(0, 0.9); got != 0 {
		t.Fatalf("zero window: got %v, want 0", got)
	}
	if got := raysim.FullJitter(-time.Second, 0.9); got != 0 {
		t.Fatalf("negative window: got %v, want 0", got)
	}
}

// TestJitterDelaySpreads asserts the supervisor restart delays are actually
// spread across the backoff window rather than synchronized at its edge —
// the thundering-herd property. With 400 draws over a 1s window the
// probability of all draws missing the first or last quarter is (3/4)^400,
// i.e. never.
func TestJitterDelaySpreads(t *testing.T) {
	const window = time.Second
	const n = 400
	var min, max time.Duration = window, 0
	distinct := make(map[time.Duration]struct{}, n)
	for i := 0; i < n; i++ {
		d := raysim.Jitter(window)
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
