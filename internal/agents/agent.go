// Package agents implements pre-built RL agents behind the high-level agent
// API of the paper's Listing 2: build, get_actions, observe, update,
// get/set_weights, export_model. Agents are configured declaratively
// (JSON documents specifying network, memory, optimizer, exploration and
// backend) and assemble their component graphs through the standard
// three-phase build.
package agents

import (
	"encoding/json"
	"io"

	"rlgraph/internal/exec"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// Agent is the high-level interface (paper Listing 2).
type Agent interface {
	// Build assembles and compiles the component graph.
	Build() (*exec.BuildReport, error)
	// GetActions maps a batch of states to actions; explore=false selects
	// greedily.
	GetActions(states *tensor.Tensor, explore bool) (*tensor.Tensor, error)
	// Observe records a batch of transitions (states, actions, rewards,
	// next states, terminals) into the agent's buffer/memory.
	Observe(s, a, r, ns, t *tensor.Tensor) error
	// Update performs one learning step from the internal memory and
	// returns the scalar loss.
	Update() (float64, error)
	// GetWeights snapshots all trainable variables.
	GetWeights() map[string]*tensor.Tensor
	// SetWeights installs a snapshot taken from an agent with the same
	// architecture.
	SetWeights(map[string]*tensor.Tensor) error
	// ExportModel serializes the weights.
	ExportModel(w io.Writer) error
}

// serializedWeights is the model format ExportModel writes.
type serializedWeights struct {
	Weights map[string]serializedTensor `json:"weights"`
}

type serializedTensor struct {
	Shape []int     `json:"shape"`
	Data  []float64 `json:"data"`
}

// exportStore writes a store's trainable weights as JSON.
func exportStore(store *vars.Store, w io.Writer) error {
	out := serializedWeights{Weights: map[string]serializedTensor{}}
	for _, v := range store.All() {
		if !v.Trainable {
			continue
		}
		out.Weights[v.Name] = serializedTensor{
			Shape: append([]int(nil), v.Val.Shape()...),
			Data:  append([]float64(nil), v.Val.Data()...),
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// trainableWeights snapshots trainable variables by name.
func trainableWeights(store *vars.Store) map[string]*tensor.Tensor {
	out := map[string]*tensor.Tensor{}
	for _, v := range store.All() {
		if v.Trainable {
			out[v.Name] = v.Val.Clone()
		}
	}
	return out
}
