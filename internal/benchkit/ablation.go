package benchkit

import (
	"time"

	"rlgraph/internal/envs"
	"rlgraph/internal/exec"
)

// AblationResult is one design-choice measurement.
type AblationResult struct {
	Name string
	FPS  float64
}

// FastPathAblation measures define-by-run act throughput with and without
// the contracted-call fast path (paper §5.1: "the graph builder can identify
// edge-contractions ... so define-by-run execution through the relevant
// sub-graph requires no intermediate component calls"). The gap isolates
// per-call component dispatch overhead.
func FastPathAblation(numEnvs, steps int) ([]AblationResult, error) {
	var out []AblationResult
	for _, fast := range []bool{false, true} {
		es := make([]envs.Env, numEnvs)
		for i := range es {
			es[i] = envs.NewPongSim(envs.PongConfig{
				Obs: envs.PongFeatures, FrameSkip: 4, Seed: int64(i + 1),
				OpponentSkill: envs.DefaultPongOpponent,
			})
		}
		vec := envs.NewVectorEnv(es...)
		agent, err := BuildAgent(DuelingDQNConfig("define-by-run", featureNet(), 1), vec.Envs[0])
		if err != nil {
			return nil, err
		}
		dbr := agent.Executor().(*exec.DefineByRunExecutor)
		dbr.FastPath = fast

		vec.ResetAll()
		act := func() error {
			states := vec.States()
			actions, err := agent.GetActions(states, true)
			if err != nil {
				return err
			}
			acts := make([]int, numEnvs)
			for i := range acts {
				acts[i] = int(actions.Data()[i])
			}
			vec.StepAll(acts)
			return nil
		}
		for i := 0; i < 5; i++ { // warm-up
			if err := act(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		frames := 0
		for time.Since(start) < 300*time.Millisecond {
			for s := 0; s < steps; s++ {
				if err := act(); err != nil {
					return nil, err
				}
				frames += numEnvs * 4
			}
		}
		name := "component dispatch"
		if fast {
			name = "fast path (contracted calls)"
		}
		out = append(out, AblationResult{Name: name, FPS: float64(frames) / time.Since(start).Seconds()})
	}
	return out, nil
}

// SessionBatchingAblation compares the RLgraph update path (one batched
// executor call: sample → loss → optimize → priority update) against an
// unbatched plan issuing one executor call per stage — the design choice
// behind the paper's RLlib comparison, isolated at the scale of a single
// agent.
func SessionBatchingAblation(updates int) ([]AblationResult, error) {
	epoch := time.Now()
	return sessionBatchingAblation(updates, func() time.Duration { return time.Since(epoch) })
}

// sessionBatchingAblation times each side with clock, which must not run
// backwards; FPS is updates per second of it.
func sessionBatchingAblation(updates int, clock func() time.Duration) ([]AblationResult, error) {
	env := envs.NewGridWorld(4, 1)
	var out []AblationResult

	// Batched: agent.Update does everything in one Execute.
	agent, err := BuildAgent(DuelingDQNConfig("static", featureNet(), 1), env)
	if err != nil {
		return nil, err
	}
	if err := seedMemory(agent, env, 512); err != nil {
		return nil, err
	}
	start := clock()
	for i := 0; i < updates; i++ {
		if _, err := agent.Update(); err != nil {
			return nil, err
		}
	}
	out = append(out, AblationResult{
		Name: "batched update (1 call)",
		FPS:  float64(updates) / (clock() - start).Seconds(),
	})

	// Unbatched: priorities computed in a separate executor call after an
	// external-style update (2 extra runtime entries per step).
	agent2, err := BuildAgent(DuelingDQNConfig("static", featureNet(), 1), env)
	if err != nil {
		return nil, err
	}
	if err := seedMemory(agent2, env, 512); err != nil {
		return nil, err
	}
	start = clock()
	for i := 0; i < updates; i++ {
		if _, err := agent2.Update(); err != nil {
			return nil, err
		}
		// Redundant separate post-processing call, as an unbatched plan
		// would issue.
		b := sampleBatchFromEnv(env, 32)
		if _, err := agent2.ComputePriorities(b.S, b.A, b.R, b.NS, b.T); err != nil {
			return nil, err
		}
	}
	out = append(out, AblationResult{
		Name: "split update + postprocess (2 calls)",
		FPS:  float64(updates) / (clock() - start).Seconds(),
	})
	return out, nil
}
