package fleet

import (
	"rlgraph/internal/agents"
	"rlgraph/internal/serve"
	"rlgraph/internal/tensor"
)

// DQNBuild adapts a per-replica DQN factory into a BuildFunc: each replica
// gets a freshly built agent (its own static executor, session, and arena),
// serves the greedy (explore=false) or ε-greedy (explore=true) action path,
// and exposes SetWeights as the hot-swap sink.
func DQNBuild(build func(i int) (*agents.DQN, error), explore bool) BuildFunc {
	api := "get_actions_greedy"
	if explore {
		api = "get_actions"
	}
	return func(i int) (serve.Runner, func(map[string]*tensor.Tensor) error, error) {
		a, err := build(i)
		if err != nil {
			return nil, nil, err
		}
		return serve.ExecutorRunner(a.Executor(), api), a.SetWeights, nil
	}
}
