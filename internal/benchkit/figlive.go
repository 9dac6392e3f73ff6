package benchkit

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/components/nn"
	"rlgraph/internal/components/optimizers"
	"rlgraph/internal/distexec"
	"rlgraph/internal/envs"
	"rlgraph/internal/execution"
	"rlgraph/internal/fleet"
	"rlgraph/internal/serve"
	"rlgraph/internal/tensor"
)

// liveGridSize is the GridWorld edge length of the live-loop workload. 4×4
// separates trained from untrained policies sharply: greedy on random
// weights typically cycles until the 64-step cap (return ≈ −0.64) while the
// learned shortest path earns ≈ +0.94.
const liveGridSize = 4

// LiveConfig parameterizes the live training→serving pipeline benchmark.
type LiveConfig struct {
	// Duration is the trainer's wall-clock budget.
	Duration time.Duration
	// Replicas is the serving-fleet size.
	Replicas int
	// Clients is the number of greedy-eval episode loops driving the fleet.
	Clients int
	// PublishEvery is the learner-update interval between weight pushes to
	// the parameter server.
	PublishEvery int
	// Workers is the Ape-X sample-worker count (default 1).
	Workers int
	// MaxBatch caps the per-replica micro-batches (default 8).
	MaxBatch int
	// EvalPause throttles each eval client between serving calls so the
	// closed loop does not starve the trainer of CPU on small machines
	// (default 500µs, negative = none).
	EvalPause time.Duration
	// GuardWindow is the publisher's per-version observation window
	// (default 50ms; bounds how fast versions can roll through the fleet).
	GuardWindow time.Duration
	// HealthEvery is the fleet-availability sampling period (default 1ms).
	HealthEvery time.Duration
}

func (c LiveConfig) withDefaults() LiveConfig {
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Clients <= 0 {
		c.Clients = 3
	}
	if c.PublishEvery <= 0 {
		c.PublishEvery = 25
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	switch {
	case c.EvalPause == 0:
		c.EvalPause = 500 * time.Microsecond
	case c.EvalPause < 0:
		c.EvalPause = 0
	}
	if c.GuardWindow <= 0 {
		c.GuardWindow = 50 * time.Millisecond
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = time.Millisecond
	}
	return c
}

// liveDQNConfig is the GridWorld hyper-parameter set of the live loop —
// small dense trunk, fast exploration decay, lr tuned so Ape-X visibly
// learns the 4×4 grid within seconds on one core.
func liveDQNConfig(seed int64) agents.DQNConfig {
	cfg := DuelingDQNConfig("static", []nn.LayerSpec{
		{Type: "dense", Units: 32, Activation: "relu"},
		{Type: "dense", Units: 32, Activation: "relu"},
	}, seed)
	cfg.Optimizer = optimizers.Config{Type: "adam", LearningRate: 1e-3}
	cfg.Exploration = agents.ExplorationConfig{Initial: 1, Final: 0.05, DecaySteps: 3000}
	cfg.BatchSize = 32
	cfg.TargetSyncEvery = 100
	cfg.Memory.Capacity = 20000
	return cfg
}

// liveWorkerFactory builds Ape-X sample workers on vectorized GridWorlds
// with an Ape-X-style per-worker epsilon ladder.
func liveWorkerFactory(envsPerWorker int) func(i int) (distexec.SampleWorker, error) {
	return func(i int) (distexec.SampleWorker, error) {
		agent, err := BuildAgent(liveDQNConfig(int64(100+i)), envs.NewGridWorld(liveGridSize, int64(200+i)))
		if err != nil {
			return nil, err
		}
		agent.Exploration().SetTimestep(i * 500)
		es := make([]envs.Env, envsPerWorker)
		for k := range es {
			es[k] = envs.NewGridWorld(liveGridSize, int64(300+i*10+k))
		}
		return execution.NewWorker(agent, envs.NewVectorEnv(es...), execution.WorkerConfig{
			NStep: 3, Gamma: 0.99, ComputePriorities: true,
		}), nil
	}
}

// LiveVersionPoint aggregates greedy-eval episodes served under one weight
// version (version 0 = the pre-publish baseline weights).
type LiveVersionPoint struct {
	Version    int64   `json:"version"`
	Episodes   int     `json:"episodes"`
	MeanReward float64 `json:"mean_reward"`
}

// LiveBenchReport is the BENCH_live.json payload (minus header and
// acceptance): the serving-side learning curve of a live trainer→fleet run.
type LiveBenchReport struct {
	Workload     string  `json:"workload"`
	DurationSec  float64 `json:"duration_sec"`
	Replicas     int     `json:"replicas"`
	Clients      int     `json:"clients"`
	Workers      int     `json:"workers"`
	PublishEvery int     `json:"publish_every"`

	// Trainer side.
	TrainerUpdates   int     `json:"trainer_updates"`
	TrainerFPS       float64 `json:"trainer_fps"`
	TrainerPublished int     `json:"trainer_published"`
	PSVersion        int64   `json:"ps_version"`

	// Publisher side.
	Applied   int64 `json:"applied_version"`
	Rollouts  int64 `json:"publisher_rollouts"`
	Rollbacks int64 `json:"rollbacks"`
	Swaps     int64 `json:"fleet_swaps"`

	// Serving side.
	Episodes   int64              `json:"eval_episodes"`
	EvalErrors int64              `json:"eval_errors"`
	MinHealthy int                `json:"min_healthy"`
	Versions   []LiveVersionPoint `json:"versions"`
	// ServedVersions counts published versions (v > 0) that completed at
	// least one eval episode.
	ServedVersions int `json:"served_versions"`

	IdentityExact bool  `json:"identity_exact"`
	Requests      int64 `json:"requests"`
	Completed     int64 `json:"completed"`
	Failed        int64 `json:"failed"`
	Unroutable    int64 `json:"unroutable"`
}

// LiveBench runs the live training→serving pipeline: an Ape-X trainer on
// GridWorld publishes weight snapshots to a distexec.ParameterServer every
// PublishEvery updates; a fleet.Publisher pulls each version and rolls it
// across a fleet.Router one replica at a time; concurrent greedy-eval
// clients play episodes through the fleet the whole time, attributing each
// finished episode's return to the weight version that served it. The
// report is the serving-side learning curve — eval reward per published
// version — plus the fleet-contract evidence (availability through every
// swap, exactly-once identities, zero rollbacks).
func LiveBench(cfg LiveConfig) (*LiveBenchReport, error) {
	cfg = cfg.withDefaults()

	// Trainer learner + parameter server initialized from its weights.
	env := envs.NewGridWorld(liveGridSize, 999)
	learner, err := BuildAgent(liveDQNConfig(999), env)
	if err != nil {
		return nil, fmt.Errorf("benchkit: live learner: %w", err)
	}
	ps := distexec.NewParameterServer(learner.GetWeights())

	// Serving fleet: every replica builds a same-architecture greedy agent
	// (weight names match the learner's snapshots).
	rt, err := fleet.New(fleet.Config{
		Replicas: cfg.Replicas,
		Build: fleet.DQNBuild(func(i int) (*agents.DQN, error) {
			return BuildAgent(liveDQNConfig(int64(i)), envs.NewGridWorld(liveGridSize, int64(i)))
		}, false),
		Serve: serve.Config{
			Elem:     env.StateSpace(),
			MaxBatch: cfg.MaxBatch,
			Block:    true,
		},
		ProbeEvery:     10 * time.Millisecond,
		ProbeTimeout:   time.Second,
		RestartBackoff: 5 * time.Millisecond,
		Seed:           7,
	})
	if err != nil {
		return nil, fmt.Errorf("benchkit: live fleet: %w", err)
	}
	pub, err := fleet.StartPublisher(ps, rt, fleet.PublisherConfig{GuardWindow: cfg.GuardWindow})
	if err != nil {
		fleetShutdown(rt)
		return nil, fmt.Errorf("benchkit: live publisher: %w", err)
	}

	// Availability sampler: the rolling-swap contract is ≥ N−1 replicas
	// serving at every instant, including mid-swap and mid-rollout.
	stopSample := make(chan struct{})
	var sampleWG sync.WaitGroup
	minHealthy := cfg.Replicas
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		tick := time.NewTicker(cfg.HealthEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopSample:
				return
			case <-tick.C:
				if h := rt.HealthyCount(); h < minHealthy {
					minHealthy = h
				}
			}
		}
	}()

	// Greedy-eval clients: throttled closed loops attributing every
	// finished episode to the max version stamp seen during it.
	ev := &execution.Evaluator{Act: func(obs *tensor.Tensor, dl time.Time) (*tensor.Tensor, int64, error) {
		out, v, err := rt.ActVersion(obs, dl)
		if cfg.EvalPause > 0 {
			time.Sleep(cfg.EvalPause)
		}
		return out, v, err
	}}
	stopEval := make(chan struct{})
	var evalWG sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		evalWG.Add(1)
		go func(c int) {
			defer evalWG.Done()
			ev.RunLoop(envs.NewGridWorld(liveGridSize, int64(500+c)), stopEval)
		}(c)
	}

	teardownLoad := func() {
		close(stopEval)
		evalWG.Wait()
		close(stopSample)
		sampleWG.Wait()
		pub.Close()
	}

	// Trainer (blocking): Ape-X publishing to the PS as it learns.
	ex, err := distexec.NewApex(distexec.ApexConfig{
		NumWorkers:      cfg.Workers,
		TaskSize:        50,
		NumReplayShards: 1,
		ReplayCapacity:  20000,
		BatchSize:       32,
		PublishTo:       ps,
		PublishEvery:    cfg.PublishEvery,
	}, learner, env.StateSpace(), liveWorkerFactory(2))
	if err != nil {
		teardownLoad()
		fleetShutdown(rt)
		return nil, fmt.Errorf("benchkit: live apex: %w", err)
	}
	res, runErr := ex.Run(distexec.RunOptions{Duration: cfg.Duration})
	if res == nil {
		teardownLoad()
		fleetShutdown(rt)
		return nil, fmt.Errorf("benchkit: live trainer: %w", runErr)
	}

	// Keep serving briefly so the last published version collects eval
	// episodes too, then tear down in the order clean accounting needs:
	// eval load first, then the publisher, then let identities settle
	// before the router shuts down.
	time.Sleep(cfg.GuardWindow)
	teardownLoad()
	m, exact := fleetQuiesce(rt, 5*time.Second)
	fleetShutdown(rt)

	rep := &LiveBenchReport{
		Workload: fmt.Sprintf("gridworld%d apex trainer -> paramserver -> publisher -> %d-replica fleet, greedy eval",
			liveGridSize, cfg.Replicas),
		DurationSec:      cfg.Duration.Seconds(),
		Replicas:         cfg.Replicas,
		Clients:          cfg.Clients,
		Workers:          cfg.Workers,
		PublishEvery:     cfg.PublishEvery,
		TrainerUpdates:   res.Updates,
		TrainerFPS:       res.FPS,
		TrainerPublished: res.Published,
		PSVersion:        ps.Version(),
		Applied:          pub.Applied(),
		Rollouts:         pub.Published(),
		Rollbacks:        pub.Rollbacks(),
		Swaps:            m.Swaps,
		Episodes:         ev.Episodes(),
		EvalErrors:       ev.Errors(),
		MinHealthy:       minHealthy,
		IdentityExact:    exact,
		Requests:         m.Requests,
		Completed:        m.Completed,
		Failed:           m.Failed,
		Unroutable:       m.Unroutable,
	}
	for _, v := range ev.ByVersion() {
		rep.Versions = append(rep.Versions, LiveVersionPoint{
			Version: v.Version, Episodes: v.Episodes, MeanReward: v.Mean,
		})
		if v.Version > 0 && v.Episodes > 0 {
			rep.ServedVersions++
		}
	}
	return rep, runErr
}

func fleetShutdown(rt *fleet.Router) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = rt.Shutdown(ctx)
}

// fleetQuiesce waits for the exactly-once identities to settle (abandoned
// attempts drain asynchronously after their requests resolve).
func fleetQuiesce(rt *fleet.Router, timeout time.Duration) (fleet.Metrics, bool) {
	deadline := time.Now().Add(timeout)
	for {
		m := rt.Metrics()
		attempts := m.Routed == m.Completed+m.RetriedAway+m.Misses+m.Failed
		requests := m.Requests == m.Completed+m.Misses+m.Failed+m.Unroutable
		if attempts && requests {
			return m, true
		}
		if time.Now().After(deadline) {
			return m, false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// LiveAcceptance evaluates the live loop's contract gates: enough published
// versions actually served eval traffic, the fleet stayed ≥ N−1 healthy
// through every rolling swap with zero eval errors, the exactly-once
// identities held at quiescence, and the regression guard never rolled a
// version back. The reward curve itself carries no gate: the policy sits at
// the 4×4 grid's reward ceiling before the first served version, and Fig. 7b
// is the learning curve.
func LiveAcceptance(rep *LiveBenchReport) []Gate {
	exact := 0.0
	if rep.IdentityExact {
		exact = 1.0
	}
	return []Gate{{
		Name:  "published versions served with eval episodes",
		Value: float64(rep.ServedVersions), Threshold: 5,
		Pass: rep.ServedVersions >= 5 && rep.TrainerPublished >= 5,
		Note: fmt.Sprintf("trainer pushed %d versions, publisher rolled out %d", rep.TrainerPublished, rep.Rollouts),
	}, {
		Name:  "fleet availability through rolling swaps (min healthy replicas)",
		Value: float64(rep.MinHealthy), Threshold: float64(rep.Replicas - 1),
		Pass: rep.MinHealthy >= rep.Replicas-1 && rep.EvalErrors == 0,
		Note: fmt.Sprintf("%d swaps, %d eval errors", rep.Swaps, rep.EvalErrors),
	}, {
		Name:  "exactly-once accounting at quiescence",
		Value: exact, Threshold: 1,
		Pass: rep.IdentityExact,
		Note: fmt.Sprintf("requests=%d completed=%d failed=%d unroutable=%d",
			rep.Requests, rep.Completed, rep.Failed, rep.Unroutable),
	}, {
		Name:  "regression guard never blacklisted an improving version (rollbacks)",
		Value: float64(rep.Rollbacks), Threshold: 0,
		Pass: rep.Rollbacks == 0,
	}}
}
