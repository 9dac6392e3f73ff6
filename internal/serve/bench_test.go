package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlgraph/internal/israce"
)

// closedLoop drives the greedy-action path of the package's small dueling
// DQN with 64 callers, each submitting its next request as soon as the
// previous one returned, until n requests completed; every request carries
// a deadline `deadline` ahead (0 = none). It returns completed requests per
// second.
func closedLoop(tb testing.TB, n int, deadline time.Duration) float64 {
	tb.Helper()
	agent, env := buildServeDQN(tb)
	svc := NewForDQN(agent, false, Config{MaxBatch: 64, FlushLatency: 200 * time.Microsecond, Block: true})
	defer svc.Close()
	obs := env.Reset().Clone()
	var left atomic.Int64
	left.Store(int64(n))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < 64; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for left.Add(-1) >= 0 {
				var by time.Time
				if deadline > 0 {
					by = time.Now().Add(deadline)
				}
				if _, err := svc.Act(obs, by); err != nil {
					tb.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return float64(n) / time.Since(start).Seconds()
}

// BenchmarkServeClosedLoopDeadline compares closed-loop throughput without a
// deadline and with one far enough away (2 s) that it never fires: the
// difference is what arming the per-request deadline timer costs.
func BenchmarkServeClosedLoopDeadline(b *testing.B) {
	for _, c := range []struct {
		name     string
		deadline time.Duration
	}{{"none", 0}, {"2s", 2 * time.Second}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportMetric(closedLoop(b, b.N, c.deadline), "req/s")
		})
	}
}

// TestDeadlineTimersAreNotAbandoned: a request that resolves before its
// deadline must leave no timer behind. An abandoned runtime timer stays
// reachable until it fires, so 20 000 requests with a one-minute deadline
// used to leave 60 000 objects on the heap.
func TestDeadlineTimersAreNotAbandoned(t *testing.T) {
	objects := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	closedLoop(t, 2000, time.Minute) // warm the pools
	before := objects()
	closedLoop(t, 20000, time.Minute)
	if grown := int64(objects()) - int64(before); grown > 5000 {
		t.Fatalf("20000 resolved requests left %d objects on the heap", grown)
	}
}

// TestDeadlineTimerIsCheap: a deadline that never fires must not cost the
// closed loop much. At 300 k req/s on two cores a request takes 3.4 µs of
// CPU, so what a deadline adds shows one to one: two clock reads, a third
// channel in the select, and arming and stopping the timer come to 12 %
// here; per-request time.After cost 26 %, growing with the deadline as the
// abandoned timers pile up. The bound is 20 %, best of five rounds a side —
// the rounds without a deadline first, so that no leftover timers weigh on
// them — which a noisy host does not trip and abandoned timers do.
func TestDeadlineTimerIsCheap(t *testing.T) {
	if testing.Short() || israce.Enabled {
		t.Skip("timing comparison")
	}
	const n = 100000
	closedLoop(t, n/10, 0) // warm up
	best := func(deadline time.Duration) (rps float64) {
		for round := 0; round < 5; round++ {
			rps = max(rps, closedLoop(t, n, deadline))
		}
		return rps
	}
	none, with := best(0), best(2*time.Second)
	t.Logf("closed loop: %.0f req/s without a deadline, %.0f req/s with a 2 s deadline", none, with)
	if with < 0.8*none {
		t.Fatalf("a 2 s deadline costs %.1f %% of closed-loop throughput (%.0f vs %.0f req/s), want < 20 %%",
			100*(1-with/none), with, none)
	}
}
