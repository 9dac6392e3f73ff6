// Command rlgraph-train trains an agent from a declarative JSON
// configuration (the paper's agent API, §3.4) on a built-in environment and
// optionally exports the learned model.
//
// Usage:
//
//	rlgraph-train -env gridworld -config config.json -steps 4000
//	rlgraph-train -env cartpole -steps 8000 -export model.json
//	rlgraph-train -serve -duration 12s -replicas 3 -clients 3
//
// Omitting -config uses a sensible DQN default for the chosen environment.
//
// With -serve the command runs the live training→serving pipeline instead of
// the single-process loop: an Ape-X trainer publishes weight snapshots to a
// parameter server while a replica fleet hot-swaps each version under live
// greedy-eval traffic, printing serving reward per published weight version.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/benchkit"
	"rlgraph/internal/envs"
	"rlgraph/internal/tensor"
)

func main() {
	envName := flag.String("env", "gridworld", "environment: gridworld, cartpole, pong")
	configPath := flag.String("config", "", "agent JSON config (default: built-in DQN)")
	steps := flag.Int("steps", 4000, "environment steps to train for")
	exportPath := flag.String("export", "", "write the trained model JSON here")
	seed := flag.Int64("seed", 1, "environment seed")
	serveMode := flag.Bool("serve", false, "run the live trainer→serving-fleet pipeline (gridworld only)")
	duration := flag.Duration("duration", 12*time.Second, "-serve: trainer wall-clock budget")
	replicas := flag.Int("replicas", 3, "-serve: serving-fleet replica count")
	clients := flag.Int("clients", 3, "-serve: greedy-eval client count")
	publishEvery := flag.Int("publish-every", 25, "-serve: learner updates between weight publishes")
	flag.Parse()

	if *serveMode {
		if err := liveServe(*duration, *replicas, *clients, *publishEvery); err != nil {
			log.Fatal(err)
		}
		return
	}

	env, err := makeEnv(*envName, *seed)
	if err != nil {
		log.Fatal(err)
	}

	cfgData := defaultConfig()
	if *configPath != "" {
		cfgData, err = os.ReadFile(*configPath)
		if err != nil {
			log.Fatalf("reading config: %v", err)
		}
	}
	agent, err := agents.FromConfig(cfgData, env.StateSpace(), env.ActionSpace())
	if err != nil {
		log.Fatalf("building agent: %v", err)
	}
	rep, err := agent.Build()
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	fmt.Printf("built agent: %s\n", rep)

	if err := train(agent, env, *steps); err != nil {
		log.Fatalf("training: %v", err)
	}

	if *exportPath != "" {
		f, err := os.Create(*exportPath)
		if err != nil {
			log.Fatalf("creating %s: %v", *exportPath, err)
		}
		defer f.Close()
		if err := agent.ExportModel(f); err != nil {
			log.Fatalf("export: %v", err)
		}
		fmt.Printf("model written to %s\n", *exportPath)
	}
}

func makeEnv(name string, seed int64) (envs.Env, error) {
	switch name {
	case "gridworld":
		return envs.NewGridWorld(4, seed), nil
	case "cartpole":
		return envs.NewCartPole(seed), nil
	case "pong":
		return envs.NewPongSim(envs.PongConfig{Seed: seed, PointsToWin: 5, FrameSkip: 4, OpponentSkill: envs.DefaultPongOpponent}), nil
	default:
		return nil, fmt.Errorf("unknown env %q (want gridworld, cartpole, pong)", name)
	}
}

func defaultConfig() []byte {
	return []byte(`{
		"type": "dqn",
		"backend": "static",
		"network": [
			{"type": "dense", "units": 64, "activation": "relu"},
			{"type": "dense", "units": 64, "activation": "relu"}
		],
		"double_q": true,
		"gamma": 0.99,
		"memory": {"type": "prioritized", "capacity": 20000},
		"optimizer": {"type": "adam", "learning_rate": 0.001},
		"exploration": {"initial": 1.0, "final": 0.05, "decay_steps": 3000},
		"batch_size": 32,
		"target_sync_every": 100
	}`)
}

func train(agent agents.Agent, env envs.Env, steps int) error {
	// Observations are borrowed (envs may reuse their obs buffers across
	// Step/Reset), so anything retained across the next Step is cloned.
	obs := env.Reset().Clone()
	episodeReward, episodes := 0.0, 0
	recent := make([]float64, 0, 16)

	for step := 0; step < steps; step++ {
		st := obs.Reshape(append([]int{1}, obs.Shape()...)...)
		at, err := agent.GetActions(st, true)
		if err != nil {
			return err
		}
		action := int(at.Data()[0])
		next, r, done := env.Step(action)
		next = next.Clone()
		episodeReward += r
		term := 0.0
		if done {
			term = 1
		}
		if err := agent.Observe(st,
			tensor.FromSlice([]float64{float64(action)}, 1),
			tensor.FromSlice([]float64{r}, 1),
			next.Reshape(append([]int{1}, next.Shape()...)...),
			tensor.FromSlice([]float64{term}, 1)); err != nil {
			return err
		}
		obs = next
		if done {
			episodes++
			recent = append(recent, episodeReward)
			if len(recent) > 16 {
				recent = recent[1:]
			}
			episodeReward = 0
			obs = env.Reset().Clone()
		}
		if step > 200 && step%4 == 0 {
			if _, err := agent.Update(); err != nil {
				return err
			}
		}
		if step%1000 == 999 {
			fmt.Printf("step %6d  episodes %4d  mean_reward %.2f\n",
				step+1, episodes, mean(recent))
		}
	}
	fmt.Printf("done: %d episodes, final mean reward %.2f\n", episodes, mean(recent))
	return nil
}

// liveServe runs the live training→serving pipeline and prints the
// serving-side learning curve: greedy-eval reward per published weight
// version, plus the fleet-contract evidence (availability through rolling
// swaps, exactly-once accounting, rollbacks). A broken contract gate is an
// error, as in rlgraph-bench -fig live.
func liveServe(duration time.Duration, replicas, clients, publishEvery int) error {
	fmt.Printf("live trainer→serving pipeline: gridworld, %d replicas, %d eval clients, publish every %d updates, %s\n",
		replicas, clients, publishEvery, duration)
	rep, err := benchkit.LiveBench(benchkit.LiveConfig{
		Duration:     duration,
		Replicas:     replicas,
		Clients:      clients,
		PublishEvery: publishEvery,
	})
	if err != nil {
		return err
	}
	fmt.Printf("trainer: %d updates (%.0f fps), %d weight versions published, parameter server at v%d\n",
		rep.TrainerUpdates, rep.TrainerFPS, rep.TrainerPublished, rep.PSVersion)
	fmt.Printf("fleet:   %d rollouts applied up to v%d, %d replica swaps, %d rollbacks, min healthy %d/%d\n",
		rep.Rollouts, rep.Applied, rep.Swaps, rep.Rollbacks, rep.MinHealthy, rep.Replicas)
	fmt.Println("serving reward per weight version (version 0 = pre-publish baseline):")
	for _, v := range rep.Versions {
		fmt.Printf("  v%-5d episodes %-4d mean_reward %7.3f\n", v.Version, v.Episodes, v.MeanReward)
	}
	fmt.Printf("eval: %d episodes, %d errors; identities exact: %v\n",
		rep.Episodes, rep.EvalErrors, rep.IdentityExact)
	return benchkit.FailedGates(benchkit.LiveAcceptance(rep))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
