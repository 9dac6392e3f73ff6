package serve

import (
	"fmt"

	"rlgraph/internal/exec"
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
