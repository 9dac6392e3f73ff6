package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"

	"rlgraph/internal/agents"
	"rlgraph/internal/envs"
	"rlgraph/internal/exec"
	"rlgraph/internal/tensor"
)

// The agent configurations are copies of configs/*.json taken when the
// benchmark was defined: a workload is an input, and a later edit to a
// shipped config must not move the baseline.
//
//go:embed workloads/*.json
var configFS embed.FS

// agentSeed is the base of every agent seed. Network initialisation, like
// the architecture, is part of a workload and not an input: --seed varies
// the environments, the observation pool and the arrivals. When the agent
// seed followed --seed, train_dense fell into one of two speeds depending on
// how many Adam moments the initial weights leave to go denormal (README,
// Findings): over ten seeds op_ms_p50 ranged over 21-32 % of its median,
// against 10 % with the seed fixed.
const agentSeed = 7

// buildDQN constructs and builds a DQN agent from an embedded config on the
// given backend, for env's spaces.
func buildDQN(config string, backend string, seed int64, env envs.Env) (*agents.DQN, *exec.BuildReport, error) {
	raw, err := configFS.ReadFile("workloads/" + config)
	if err != nil {
		return nil, nil, err
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, nil, fmt.Errorf("parsing %s: %w", config, err)
	}
	doc["backend"] = backend
	doc["seed"] = seed
	if raw, err = json.Marshal(doc); err != nil {
		return nil, nil, err
	}
	a, err := agents.FromConfig(raw, env.StateSpace(), env.ActionSpace())
	if err != nil {
		return nil, nil, err
	}
	dqn, ok := a.(*agents.DQN)
	if !ok {
		return nil, nil, fmt.Errorf("%s does not configure a DQN agent", config)
	}
	rep, err := dqn.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("building %s on %s: %w", config, backend, err)
	}
	return dqn, rep, nil
}

// twinAgrees is the independent oracle for a trained static-backend agent:
// its weights are copied into a define-by-run twin (a different
// interpreter over the same component graph) and both must give the same Q
// values on the probe observations to within 1e-9.
func twinAgrees(config string, agent *agents.DQN, env envs.Env, probes *tensor.Tensor) (bool, error) {
	twin, _, err := buildDQN(config, "define-by-run", agentSeed, env)
	if err != nil {
		return false, err
	}
	if err := twin.SetWeights(agent.GetWeights()); err != nil {
		return false, fmt.Errorf("copying weights into the twin: %w", err)
	}
	want, err := twin.GetQValues(probes)
	if err != nil {
		return false, err
	}
	got, err := agent.GetQValues(probes)
	if err != nil {
		return false, err
	}
	if !tensor.SameShape(got.Shape(), want.Shape()) {
		return false, nil
	}
	for i, g := range got.Data() {
		if d := math.Abs(g - want.Data()[i]); !(d <= 1e-9) {
			return false, nil
		}
	}
	return true, nil
}

// reportBuild fills the build metrics of Fig. 5a from a BuildReport.
func reportBuild(out *outcome, rep *exec.BuildReport) {
	out.values["exec.build_trace_ms"] = float64(rep.TraceTime) / 1e6
	out.values["exec.build_ms"] = float64(rep.BuildTime) / 1e6
	out.values["exec.graph_nodes"] = float64(rep.GraphNodes)
	out.values["component.count"] = float64(rep.NumComponents)
}
