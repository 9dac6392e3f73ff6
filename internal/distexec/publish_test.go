package distexec

import (
	"testing"
	"time"

	"rlgraph/internal/envs"
	"rlgraph/internal/execution"
)

// TestApexPublishesToParameterServer checks the live-pipeline hook: with
// PublishTo set, the learner pushes a weight snapshot every PublishEvery
// updates, so the parameter-server version advances in lockstep with
// Updates/PublishEvery and the stored snapshot matches the learner's
// variable set.
func TestApexPublishesToParameterServer(t *testing.T) {
	env := gridEnvFactory(5)
	learner := newDQN(t, env, 55)
	ps := NewParameterServer(learner.GetWeights())
	if ps.Version() != 0 {
		t.Fatalf("fresh parameter server at version %d, want 0", ps.Version())
	}
	cfg := ApexConfig{
		NumWorkers:      1,
		TaskSize:        20,
		NumReplayShards: 1,
		ReplayCapacity:  2000,
		BatchSize:       16,
		PublishTo:       ps,
		PublishEvery:    5,
	}
	ex, err := NewApex(cfg, learner, env.StateSpace(), func(i int) (SampleWorker, error) {
		agent := newDQN(t, env, int64(60+i))
		vec := envs.NewVectorEnv(gridEnvFactory(int64(70 + i)))
		return execution.NewWorker(agent, vec, execution.WorkerConfig{
			NStep: 3, Gamma: 0.99, ComputePriorities: true,
		}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(RunOptions{Duration: 700 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates < cfg.PublishEvery {
		t.Fatalf("only %d updates; too few to exercise publishing", res.Updates)
	}
	want := res.Updates / cfg.PublishEvery
	if res.Published != want {
		t.Fatalf("published %d snapshots over %d updates, want %d (every %d)",
			res.Published, res.Updates, want, cfg.PublishEvery)
	}
	if got := ps.Version(); got != int64(res.Published) {
		t.Fatalf("parameter server at version %d after %d pushes", got, res.Published)
	}

	// The stored snapshot must carry the learner's full variable set so a
	// same-architecture serving replica can SetWeights it verbatim.
	snap, ver := ps.Pull()
	if ver != ps.Version() {
		t.Fatalf("Pull returned version %d, server at %d", ver, ps.Version())
	}
	learnerW := learner.GetWeights()
	if len(snap) != len(learnerW) {
		t.Fatalf("snapshot has %d variables, learner has %d", len(snap), len(learnerW))
	}
	for name, w := range learnerW {
		sv, ok := snap[name]
		if !ok {
			t.Fatalf("snapshot missing learner variable %q", name)
		}
		if len(sv.Data()) != len(w.Data()) {
			t.Fatalf("variable %q: snapshot size %d, learner size %d", name, len(sv.Data()), len(w.Data()))
		}
	}
}
