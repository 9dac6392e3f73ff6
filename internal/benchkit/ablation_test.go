package benchkit

import (
	"runtime"
	"testing"
	"time"
)

func TestFastPathAblationRuns(t *testing.T) {
	rows, err := FastPathAblation(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FPS <= 0 {
			t.Fatalf("fps = %g for %s", r.FPS, r.Name)
		}
	}
}

// TestSessionBatchingAblationShowsBatchedFaster: the batched plan must not be
// slower, since it strictly does less work. Each side runs for a few
// milliseconds, so it is timed in process CPU time on one P: wall clock let
// one descheduling, while other test binaries shared the cores, invert the
// comparison.
func TestSessionBatchingAblationShowsBatchedFaster(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rows, err := sessionBatchingAblation(20, func() time.Duration { return cpuTime(t) })
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].FPS < rows[1].FPS*0.9 {
		t.Fatalf("batched %.1f vs split %.1f updates per CPU second", rows[0].FPS, rows[1].FPS)
	}
}
