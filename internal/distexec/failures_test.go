package distexec

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/envs"
	"rlgraph/internal/execution"
	"rlgraph/internal/raysim"
	"rlgraph/internal/tensor"
)

// faultyWorker fails after a configurable number of sample tasks —
// failure-injection for the executor's error path.
type faultyWorker struct {
	inner    SampleWorker
	failAt   int
	sampled  int
	failWith error
}

func (f *faultyWorker) Sample(n int) (*execution.Batch, error) {
	f.sampled++
	if f.sampled >= f.failAt {
		return nil, f.failWith
	}
	return f.inner.Sample(n)
}

func (f *faultyWorker) SetWeights(w map[string]*tensor.Tensor) error {
	return f.inner.SetWeights(w)
}

func (f *faultyWorker) MeanReward(n int) (float64, bool) { return f.inner.MeanReward(n) }

func TestApexSurfacesWorkerFailure(t *testing.T) {
	env := gridEnvFactory(11)
	learner := newDQN(t, env, 44)
	boom := errors.New("env crashed")
	// Every incarnation of the worker fails on its third task, so the
	// supervisor's restart budget runs out and the run must fail —
	// surfacing the root cause, not a hang.
	ex, err := NewApex(ApexConfig{NumWorkers: 1, TaskSize: 5, NumReplayShards: 1,
		ReplayCapacity: 100, BatchSize: 8, MaxWorkerRestarts: 1,
		RestartBackoff: 10 * time.Millisecond}, learner, env.StateSpace(),
		func(i int) (SampleWorker, error) {
			agent := newDQN(t, env, int64(i+80))
			vec := vecOf(int64(90 + i))
			w := execution.NewWorker(agent, vec, execution.WorkerConfig{NStep: 1, Gamma: 0.99})
			return &faultyWorker{inner: w, failAt: 3, failWith: boom}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(RunOptions{Duration: 5 * time.Second})
	if err == nil {
		t.Fatal("worker failure not surfaced")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("wrong error: %v", err)
	}
	// The run must still terminate promptly and report partial progress.
	if res == nil || res.Elapsed > 4*time.Second {
		t.Fatalf("run did not stop promptly on failure: %+v", res)
	}
	if res.Restarts == 0 {
		t.Fatal("supervisor attempted no restarts before giving up")
	}
	if res.FailedCalls == 0 {
		t.Fatal("failed calls not counted")
	}
}

// vecOf builds a one-env vector for failure tests.
func vecOf(seed int64) *envs.VectorEnv {
	return envs.NewVectorEnv(gridEnvFactory(seed))
}

func TestApexWorkerFactoryErrorAbortsConstruction(t *testing.T) {
	env := gridEnvFactory(12)
	learner := newDQN(t, env, 45)
	boom := errors.New("no such device")
	_, err := NewApex(ApexConfig{NumWorkers: 2}, learner, env.StateSpace(),
		func(i int) (SampleWorker, error) {
			if i == 1 {
				return nil, boom
			}
			agent := newDQN(t, env, int64(i))
			return execution.NewWorker(agent, vecOf(7), execution.WorkerConfig{NStep: 1, Gamma: 0.9}), nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("factory error not surfaced: %v", err)
	}
}

func TestIMPALAActorFailureSurfaces(t *testing.T) {
	env := gridEnvFactory(13)
	learner := newIMPALA(t, env, 46)
	ex, err := NewIMPALAExec(IMPALAConfig{NumActors: 1, QueueCapacity: 2},
		learner, env.StateSpace(), func(i int) (*agents.IMPALA, envs.Env, error) {
			return newIMPALA(t, env, int64(i)), gridEnvFactory(int64(70 + i)), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// A healthy short run must not error.
	if _, err := ex.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestApexSurvivesInjectedWorkerCrash is the headline chaos scenario: under
// a FaultPlan that crashes 1 of 4 workers at its third task, the supervisor
// restarts the worker and the run completes with learner progress.
func TestApexSurvivesInjectedWorkerCrash(t *testing.T) {
	env := gridEnvFactory(14)
	learner := newDQN(t, env, 47)
	ex, err := NewApex(ApexConfig{
		NumWorkers: 4, TaskSize: 10, NumReplayShards: 2,
		ReplayCapacity: 2000, BatchSize: 8,
		MaxWorkerRestarts: 2, RestartBackoff: 10 * time.Millisecond,
		CallTimeout: 5 * time.Second,
		Cluster: raysim.Config{Faults: &raysim.FaultPlan{
			Seed:   1,
			Actors: map[string]raysim.ActorFaults{"worker-0": {CrashOnCall: 3}},
		}},
	}, learner, env.StateSpace(),
		func(i int) (SampleWorker, error) {
			agent := newDQN(t, env, int64(i+100))
			return execution.NewWorker(agent, vecOf(int64(110+i)),
				execution.WorkerConfig{NStep: 1, Gamma: 0.99}), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(RunOptions{Duration: 1200 * time.Millisecond})
	if err != nil {
		t.Fatalf("run did not survive injected crash: %v", err)
	}
	if res.Restarts < 1 {
		t.Fatalf("restarts = %d, want >= 1", res.Restarts)
	}
	if res.Updates == 0 {
		t.Fatal("no learner updates after recovery")
	}
	if res.FailedCalls == 0 {
		t.Fatal("injected crash not counted as failed call")
	}
	if res.Frames == 0 {
		t.Fatal("no frames collected")
	}
}

// hangingWorker blocks forever on its Nth sample (first incarnation only) —
// the deadline path: the call must time out and the supervisor must replace
// the hung worker.
type hangingWorker struct {
	inner   SampleWorker
	hangAt  int
	sampled int
	armed   *atomic.Bool // hang only while set; restarts disarm
}

func (h *hangingWorker) Sample(n int) (*execution.Batch, error) {
	h.sampled++
	if h.armed.Load() && h.sampled >= h.hangAt {
		select {} // hung worker: never returns
	}
	return h.inner.Sample(n)
}

func (h *hangingWorker) SetWeights(w map[string]*tensor.Tensor) error {
	return h.inner.SetWeights(w)
}

func (h *hangingWorker) MeanReward(n int) (float64, bool) { return h.inner.MeanReward(n) }

func TestApexHungWorkerTimesOutAndRestarts(t *testing.T) {
	env := gridEnvFactory(15)
	learner := newDQN(t, env, 48)
	var armed atomic.Bool
	armed.Store(true)
	incarnations := 0
	ex, err := NewApex(ApexConfig{
		NumWorkers: 1, TaskSize: 5, NumReplayShards: 1,
		ReplayCapacity: 500, BatchSize: 8,
		MaxWorkerRestarts: 2, RestartBackoff: 10 * time.Millisecond,
		CallTimeout: 200 * time.Millisecond,
		Cluster:     raysim.Config{ShutdownGrace: 500 * time.Millisecond},
	}, learner, env.StateSpace(),
		func(i int) (SampleWorker, error) {
			incarnations++
			agent := newDQN(t, env, int64(i+120))
			w := execution.NewWorker(agent, vecOf(int64(130+i)),
				execution.WorkerConfig{NStep: 1, Gamma: 0.99})
			if incarnations == 1 {
				return &hangingWorker{inner: w, hangAt: 2, armed: &armed}, nil
			}
			armed.Store(false)
			return w, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(RunOptions{Duration: 1500 * time.Millisecond})
	if err != nil {
		t.Fatalf("run did not survive hung worker: %v", err)
	}
	if res.TimedOutCalls == 0 {
		t.Fatal("hung sample call not counted as timed out")
	}
	if res.Restarts < 1 {
		t.Fatalf("restarts = %d, want >= 1", res.Restarts)
	}
	if res.Frames == 0 {
		t.Fatal("no frames after recovery")
	}
}

// TestApexHungReplayShardDoesNotDeadlock injects a pathological latency on
// one replay shard: learner and feeder calls to it must time out (stalling
// one iteration, not the run), and learning must continue on the healthy
// shard.
func TestApexHungReplayShardDoesNotDeadlock(t *testing.T) {
	env := gridEnvFactory(16)
	learner := newDQN(t, env, 49)
	ex, err := NewApex(ApexConfig{
		NumWorkers: 2, TaskSize: 10, NumReplayShards: 2,
		ReplayCapacity: 2000, BatchSize: 8,
		RestartBackoff: 10 * time.Millisecond,
		CallTimeout:    150 * time.Millisecond,
		Cluster: raysim.Config{
			ShutdownGrace: 500 * time.Millisecond,
			Faults: &raysim.FaultPlan{
				Seed:   2,
				Actors: map[string]raysim.ActorFaults{"replay-0": {ExtraLatency: time.Minute}},
			},
		},
	}, learner, env.StateSpace(),
		func(i int) (SampleWorker, error) {
			agent := newDQN(t, env, int64(i+140))
			return execution.NewWorker(agent, vecOf(int64(150+i)),
				execution.WorkerConfig{NStep: 1, Gamma: 0.99}), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := ex.Run(RunOptions{Duration: 1500 * time.Millisecond})
	if err != nil {
		t.Fatalf("run failed under hung shard: %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("run did not terminate promptly — deadlocked on hung shard")
	}
	if res.TimedOutCalls == 0 {
		t.Fatal("calls to hung shard not counted as timed out")
	}
	if res.Updates == 0 {
		t.Fatal("healthy shard produced no learner updates")
	}
}

// crashingEnv panics mid-episode while armed — injects an actor crash
// between rollout collection and queue insertion.
type crashingEnv struct {
	envs.Env
	steps   int
	crashAt int
	armed   *atomic.Bool
}

func (c *crashingEnv) Step(a int) (*tensor.Tensor, float64, bool) {
	c.steps++
	if c.armed.Load() && c.steps >= c.crashAt {
		c.armed.Store(false)
		panic("simulated env crash mid-rollout")
	}
	return c.Env.Step(a)
}

func TestIMPALAActorCrashMidQueueRestarts(t *testing.T) {
	env := gridEnvFactory(17)
	learner := newIMPALA(t, env, 50)
	var armed atomic.Bool
	armed.Store(true)
	ex, err := NewIMPALAExec(IMPALAConfig{
		NumActors: 2, QueueCapacity: 4,
		RestartBackoff: 10 * time.Millisecond,
	}, learner, env.StateSpace(), func(i int) (*agents.IMPALA, envs.Env, error) {
		e := envs.Env(gridEnvFactory(int64(160 + i)))
		if i == 0 {
			e = &crashingEnv{Env: e, crashAt: 12, armed: &armed}
		}
		return newIMPALA(t, env, int64(i+10)), e, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(700 * time.Millisecond)
	if err != nil {
		t.Fatalf("run did not survive actor crash: %v", err)
	}
	if res.Restarts < 1 {
		t.Fatalf("restarts = %d, want >= 1", res.Restarts)
	}
	if res.Updates == 0 {
		t.Fatal("no learner updates after actor recovery")
	}
	if armed.Load() {
		t.Fatal("crash was never triggered — scenario did not exercise the supervisor")
	}
}

// TestApexDegradedRunCompletes permanently loses one of two workers (every
// incarnation keeps failing) and asserts the run finishes on the surviving
// worker, reporting degraded time instead of an error.
func TestApexDegradedRunCompletes(t *testing.T) {
	env := gridEnvFactory(18)
	learner := newDQN(t, env, 51)
	boom := errors.New("flaky rack")
	ex, err := NewApex(ApexConfig{
		NumWorkers: 2, TaskSize: 10, NumReplayShards: 1,
		ReplayCapacity: 2000, BatchSize: 8,
		MaxWorkerRestarts: 1,
		RestartBackoff:    10 * time.Millisecond,
	}, learner, env.StateSpace(),
		func(i int) (SampleWorker, error) {
			agent := newDQN(t, env, int64(i+170))
			w := execution.NewWorker(agent, vecOf(int64(180+i)),
				execution.WorkerConfig{NStep: 1, Gamma: 0.99})
			if i == 0 {
				return &faultyWorker{inner: w, failAt: 2, failWith: boom}, nil
			}
			return w, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(RunOptions{Duration: 900 * time.Millisecond})
	if err != nil {
		t.Fatalf("degraded run should complete, got: %v", err)
	}
	if res.Restarts < 1 {
		t.Fatal("no restart attempted before degrading")
	}
	if res.Degraded == 0 {
		t.Fatal("degraded time not reported after permanent worker loss")
	}
	if res.Frames == 0 || res.Updates == 0 {
		t.Fatalf("surviving worker made no progress: frames=%d updates=%d", res.Frames, res.Updates)
	}
}
