package distexec

import (
	"runtime"
	"testing"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/envs"
	"rlgraph/internal/execution"
	"rlgraph/internal/raysim"
)

// settleGoroutines polls until at most want goroutines run. The wall clock
// only bounds the wait; the verdict is the count.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after the run, want at most %d:\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestApexRunLeaksNoGoroutine: after Run returns, no feeder, sampler,
// supervisor or actor goroutine is left. The one exception is raysim's
// parked drainer per terminated actor incarnation (drainAbandoned): one per
// actor, plus one per incarnation a restart replaced.
func TestApexRunLeaksNoGoroutine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults *raysim.FaultPlan
	}{
		{"clean", nil},
		{"worker crash", &raysim.FaultPlan{Seed: 1,
			Actors: map[string]raysim.ActorFaults{"worker-0": {CrashOnCall: 3}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := gridEnvFactory(19)
			learner := newDQN(t, env, 52)
			base := runtime.NumGoroutine()
			cfg := ApexConfig{NumWorkers: 2, TaskSize: 10, NumReplayShards: 2,
				ReplayCapacity: 2000, BatchSize: 8, RestartBackoff: time.Millisecond,
				Cluster: raysim.Config{Faults: tc.faults}}
			ex, err := NewApex(cfg, learner, env.StateSpace(), func(i int) (SampleWorker, error) {
				return execution.NewWorker(newDQN(t, env, int64(i+190)), vecOf(int64(200+i)),
					execution.WorkerConfig{NStep: 1, Gamma: 0.99}), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := ex.Run(RunOptions{Duration: 300 * time.Millisecond, SampleTimelineEvery: 20 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if tc.faults != nil && res.Restarts < 1 {
				t.Fatalf("restarts = %d, want >= 1", res.Restarts)
			}
			settleGoroutines(t, base+cfg.NumWorkers+cfg.NumReplayShards+res.Restarts)
		})
	}
}

// TestIMPALARunLeaksNoGoroutine: IMPALA's actors are plain goroutines, so
// after Run the count is back at its pre-run level.
func TestIMPALARunLeaksNoGoroutine(t *testing.T) {
	env := gridEnvFactory(20)
	learner := newIMPALA(t, env, 53)
	ex, err := NewIMPALAExec(IMPALAConfig{NumActors: 2, QueueCapacity: 2},
		learner, env.StateSpace(), func(i int) (*agents.IMPALA, envs.Env, error) {
			return newIMPALA(t, env, int64(i+20)), gridEnvFactory(int64(210 + i)), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	if _, err := ex.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base)
}
