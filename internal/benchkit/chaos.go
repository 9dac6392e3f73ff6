package benchkit

import (
	"time"

	"rlgraph/internal/distexec"
	"rlgraph/internal/raysim"
)

// quickChaosDuration is the smoke-test measurement window per scenario —
// wide enough that injected faults fire even under the race detector's
// slowdown.
const quickChaosDuration = 800 * time.Millisecond

// ChaosResult is one Ape-X run under a named fault scenario.
type ChaosResult struct {
	Scenario      string
	FPS           float64
	Updates       int
	Restarts      int
	FailedCalls   int64
	TimedOutCalls int64
	Degraded      time.Duration
}

// chaosScenario names a FaultPlan applied to a run.
type chaosScenario struct {
	name string
	plan *raysim.FaultPlan
}

// Chaos measures Ape-X throughput under injected faults against a clean
// baseline: a worker crash mid-run, a flaky worker (probabilistic call
// errors), and replay-shard latency jitter. It quantifies the cost of the
// supervision machinery (restart + re-sync + degraded rotation) the same way
// the figure benches quantify execution-plan overheads.
func Chaos(workers int, duration time.Duration, points int) ([]ChaosResult, error) {
	scenarios := []chaosScenario{
		{name: "clean"},
		{name: "worker-crash", plan: &raysim.FaultPlan{
			Seed:   7,
			Actors: map[string]raysim.ActorFaults{"worker-0": {CrashOnCall: 2}},
		}},
		{name: "flaky-worker", plan: &raysim.FaultPlan{
			Seed:   7,
			Actors: map[string]raysim.ActorFaults{"worker-0": {ErrorProb: 0.5}},
		}},
		{name: "replay-jitter", plan: &raysim.FaultPlan{
			Seed: 7,
			Actors: map[string]raysim.ActorFaults{
				"replay-0": {ExtraLatency: 20 * time.Millisecond, LatencyJitter: 30 * time.Millisecond},
			},
		}},
	}
	var out []ChaosResult
	for _, sc := range scenarios {
		learner, env, err := apexLearner(points, false)
		if err != nil {
			return nil, err
		}
		cfg := distexec.ApexConfig{
			NumWorkers:        workers,
			TaskSize:          50,
			NumReplayShards:   2,
			ReplayCapacity:    20000,
			BatchSize:         64,
			MaxWorkerRestarts: 3,
			RestartBackoff:    20 * time.Millisecond,
			Cluster:           raysim.Config{Faults: sc.plan},
		}
		ex, err := distexec.NewApex(cfg, learner, env.StateSpace(),
			apexWorkerFactory(KindRLgraph, points, 4, false))
		if err != nil {
			return nil, err
		}
		res, err := ex.Run(distexec.RunOptions{Duration: duration})
		if err != nil {
			return nil, err
		}
		out = append(out, ChaosResult{
			Scenario:      sc.name,
			FPS:           res.FPS,
			Updates:       res.Updates,
			Restarts:      res.Restarts,
			FailedCalls:   res.FailedCalls,
			TimedOutCalls: res.TimedOutCalls,
			Degraded:      res.Degraded,
		})
	}
	return out, nil
}
