package serve

import (
	"fmt"

	"rlgraph/internal/agents"
	"rlgraph/internal/exec"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// ExecutorRunner adapts one API of a built executor into a Runner. On the
// static backend the call is one compiled-plan session iteration per
// micro-batch — the registry lookup the whole serving layer exists to
// amortize.
func ExecutorRunner(e exec.Executor, api string) Runner {
	return func(batch *tensor.Tensor) (*tensor.Tensor, error) {
		outs, err := e.Execute(api, batch)
		if err != nil {
			return nil, err
		}
		if len(outs) == 0 {
			return nil, fmt.Errorf("serve: API %q returned no outputs", api)
		}
		return outs[0], nil
	}
}

// AgentRunner adapts an agent's action path into a Runner.
func AgentRunner(a agents.Agent, explore bool) Runner {
	return func(batch *tensor.Tensor) (*tensor.Tensor, error) {
		return a.GetActions(batch, explore)
	}
}

// NewForExecutor builds a Service over one executor API, deriving the
// element shape (and admission check) from the API's observation space.
// elem is the UNBATCHED observation space of one request.
func NewForExecutor(e exec.Executor, api string, elem spaces.Space, cfg Config) *Service {
	if cfg.Elem == nil {
		cfg.Elem = elem
	}
	return New(ExecutorRunner(e, api), cfg)
}

// NewForDQN serves a built DQN agent's greedy (explore=false) or
// ε-greedy (explore=true) action path.
func NewForDQN(a *agents.DQN, explore bool, cfg Config) *Service {
	api := "get_actions_greedy"
	if explore {
		api = "get_actions"
	}
	return NewForExecutor(a.Executor(), api, a.StateSpace(), cfg)
}
