package fleet

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestShutdownLeaksNoGoroutine: after Shutdown no supervisor, probe or
// batcher goroutine is left, including those of a replica that was killed
// and rebuilt. The wall clock only bounds the waits; the verdict is the
// goroutine count.
func TestShutdownLeaksNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	f := newFakeFleet()
	rt := newTestRouter(t, f, Config{Replicas: 2})
	for i := 0; i < 20; i++ {
		if _, err := rt.Act(obsOf(1, 2), time.Time{}); err != nil {
			t.Fatalf("Act: %v", err)
		}
	}
	if err := rt.Kill(0); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	waitFor(t, 3*time.Second, "replica 0 rebuild", func() bool {
		return f.buildCount(0) >= 2 && rt.replicas[0].state.Load() == stateHealthy
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Shutdown, want at most %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
