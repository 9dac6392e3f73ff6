package fleet

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/components/nn"
	"rlgraph/internal/components/optimizers"
	"rlgraph/internal/distexec"
	"rlgraph/internal/envs"
	"rlgraph/internal/serve"
	"rlgraph/internal/tensor"
)

// buildChaosAgent builds a small static dueling DQN over GridWorld8 — the
// same serving workload shape the serve bench uses. Identical seeds build
// identical weights, which is what makes the bit-for-bit assertions below
// meaningful.
func buildChaosAgent(t *testing.T, seed int64) *agents.DQN {
	t.Helper()
	env := envs.NewGridWorld(8, seed)
	specs := []nn.LayerSpec{
		{Type: "dense", Units: 8, Activation: "relu"},
		{Type: "dense", Units: 8, Activation: "relu"},
		{Type: "dense", Units: 8, Activation: "relu"},
	}
	cfg := agents.DQNConfig{
		Backend:         "static",
		Network:         specs,
		Dueling:         true,
		DuelingHidden:   16,
		Gamma:           0.99,
		Memory:          agents.MemoryConfig{Type: "replay", Capacity: 512},
		Optimizer:       optimizers.Config{Type: "adam", LearningRate: 1e-4},
		Exploration:     agents.ExplorationConfig{Initial: 1, Final: 0.02, DecaySteps: 10000},
		BatchSize:       32,
		TargetSyncEvery: 100,
		Seed:            seed,
	}
	a, err := agents.NewDQN(cfg, env.StateSpace(), env.ActionSpace())
	if err != nil {
		t.Fatalf("NewDQN: %v", err)
	}
	if _, err := a.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return a
}

func chaosObsPool(n int) []*tensor.Tensor {
	env := envs.NewGridWorld(8, 5)
	rng := rand.New(rand.NewSource(99))
	pool := make([]*tensor.Tensor, 0, n)
	cur := env.Reset()
	for len(pool) < n {
		pool = append(pool, cur.Clone())
		next, _, done := env.Step(rng.Intn(4))
		if done {
			next = env.Reset()
		}
		cur = next
	}
	return pool
}

// TestChaosGateDQN is the acceptance gate end to end on the real serving
// stack: a 3-replica DQN fleet under concurrent load has one replica killed
// while a weight push rolls through.
//
//   - no request is lost or double-delivered: the attempt- and
//     request-level accounting identities hold exactly at quiescence;
//   - the killed replica is rebuilt and rejoins on the pushed snapshot;
//   - responses served on the new version are bit-for-bit identical to a
//     fresh single-replica service built directly on the new weights.
func TestChaosGateDQN(t *testing.T) {
	elem := envs.NewGridWorld(8, 0).StateSpace()
	f := Config{
		Replicas: 3,
		Build: DQNBuild(func(i int) (*agents.DQN, error) {
			return buildChaosAgent(t, 3), nil // every replica: same seed, same weights
		}, false),
		Serve: serve.Config{
			Elem:         elem,
			MaxBatch:     8,
			FlushLatency: 200 * time.Microsecond,
		},
		ProbeEvery:     5 * time.Millisecond,
		ProbeTimeout:   500 * time.Millisecond, // DQN batches are slow under -race on one core
		RestartBackoff: time.Millisecond,
		Seed:           1,
	}
	rt, err := New(f)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	}()

	// Parameter server seeded with the replicas' own weights (v0), then a
	// trainer push of genuinely different weights (v1) lands mid-chaos.
	base := buildChaosAgent(t, 3)
	trained := buildChaosAgent(t, 11)
	ps := distexec.NewParameterServer(base.GetWeights())
	p, err := StartPublisher(ps, rt, PublisherConfig{GuardWindow: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("StartPublisher: %v", err)
	}
	defer p.Close()

	pool := chaosObsPool(64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var unexpected atomic.Int64
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := rt.ActVersion(pool[i%len(pool)], time.Now().Add(100*time.Millisecond))
				if err != nil && err != serve.ErrDeadline {
					unexpected.Add(1)
					t.Errorf("unexpected serving error under chaos: %v", err)
					return
				}
			}
		}(c)
	}

	// Chaos window: kill a replica, then push the new weights while the
	// fleet is degraded and the rebuild races the rolling swap.
	time.Sleep(20 * time.Millisecond)
	if err := rt.Kill(1); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := ps.Push(trained.GetWeights()); err != nil {
		t.Fatalf("Push: %v", err)
	}

	// Let the dust settle: replica rebuilt, v1 rolled out everywhere.
	waitFor(t, 10*time.Second, "fleet healthy on v1", func() bool {
		m := rt.Metrics()
		for _, r := range m.Replicas {
			if r.State != "healthy" || r.Version != 1 {
				return false
			}
		}
		return true
	})
	close(stop)
	wg.Wait()
	if unexpected.Load() != 0 {
		t.Fatalf("%d requests failed outright during the chaos window", unexpected.Load())
	}

	m := checkIdentities(t, rt)
	if m.Restarts < 1 || m.Recoveries < 1 {
		t.Fatalf("killed replica never rebuilt: %+v", m)
	}
	if m.Swaps < 2 {
		t.Fatalf("rolling swap did not reach the surviving replicas: %+v", m)
	}
	t.Logf("chaos: %d requests, %d completed, %d misses, %d retried away, %d restarts, %d swaps (skips=%d)",
		m.Requests, m.Completed, m.Misses, m.RetriedAway, m.Restarts, m.Swaps, m.SwapSkips)

	// Bit-for-bit: a fresh single-replica service built directly on the
	// pushed weights must agree exactly with what the swapped fleet serves.
	ref := buildChaosAgent(t, 3)
	if err := ref.SetWeights(trained.GetWeights()); err != nil {
		t.Fatalf("SetWeights: %v", err)
	}
	refSvc := serve.New(serve.ExecutorRunner(ref.Executor(), "get_actions_greedy"),
		serve.Config{Elem: elem, MaxBatch: 8, FlushLatency: 200 * time.Microsecond})
	defer func() { _ = refSvc.Close() }()
	for i, obs := range pool {
		got, v, err := rt.ActVersion(obs, time.Time{})
		if err != nil {
			t.Fatalf("fleet act %d: %v", i, err)
		}
		if v != 1 {
			t.Fatalf("act %d stamped v%d, want v1 fleet-wide after rollout", i, v)
		}
		want, err := refSvc.Act(obs, time.Time{})
		if err != nil {
			t.Fatalf("reference act %d: %v", i, err)
		}
		if !tensor.SameShape(got.Shape(), want.Shape()) {
			t.Fatalf("act %d shape %v vs reference %v", i, got.Shape(), want.Shape())
		}
		for j := range got.Data() {
			if got.Data()[j] != want.Data()[j] {
				t.Fatalf("act %d differs from the fresh reference at %d: %v vs %v — swapped weights are not bit-identical",
					i, j, got.Data()[j], want.Data()[j])
			}
		}
	}
}
