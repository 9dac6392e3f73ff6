package agents

import (
	"bytes"
	"encoding/json"
	"fmt"

	"rlgraph/internal/components/nn"
	"rlgraph/internal/components/optimizers"
	"rlgraph/internal/spaces"
)

// MemoryConfig declares the replay memory.
type MemoryConfig struct {
	// Type is "replay" (uniform) or "prioritized".
	Type string `json:"type"`
	// Capacity is the record capacity.
	Capacity int `json:"capacity"`
	// Alpha/Beta are prioritized-replay exponents.
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
}

// ExplorationConfig declares epsilon-greedy annealing.
type ExplorationConfig struct {
	Initial    float64 `json:"initial"`
	Final      float64 `json:"final"`
	DecaySteps int     `json:"decay_steps"`
}

// DQNConfig is the declarative configuration for DQN-family agents
// (vanilla, double, dueling, prioritized, n-step — the combination used by
// Ape-X).
type DQNConfig struct {
	// Backend selects "static" or "define-by-run".
	Backend string `json:"backend,omitempty"`
	// Network lists trunk layers; the output head is appended automatically
	// (a dueling head when Dueling is set, else one linear layer).
	Network []nn.LayerSpec `json:"network"`
	// Dueling enables the dueling value/advantage head.
	Dueling bool `json:"dueling,omitempty"`
	// DuelingHidden sizes the dueling streams (default 64).
	DuelingHidden int `json:"dueling_hidden,omitempty"`
	// DoubleQ enables double-DQN targets.
	DoubleQ bool `json:"double_q,omitempty"`
	// Huber enables the Huber element loss.
	Huber bool `json:"huber,omitempty"`
	// Gamma is the discount; NStep the multi-step return length.
	Gamma float64 `json:"gamma"`
	NStep int     `json:"n_step,omitempty"`
	// Memory, Optimizer, Exploration configure the respective components.
	Memory      MemoryConfig      `json:"memory"`
	Optimizer   optimizers.Config `json:"optimizer"`
	Exploration ExplorationConfig `json:"exploration"`
	// BatchSize is the update sample size.
	BatchSize int `json:"batch_size"`
	// TargetSyncEvery syncs the target network every N updates (0 = manual).
	TargetSyncEvery int `json:"target_sync_every,omitempty"`
	// NumGPUs > 1 enables the synchronous multi-GPU device strategy: the
	// build expands the update graph into one loss tower per GPU with batch
	// sharding and averaged-gradient semantics (exposed as the
	// update_multigpu API). Batch sizes should be divisible by NumGPUs.
	NumGPUs int `json:"num_gpus,omitempty"`
	// Seed drives all component initialization.
	Seed int64 `json:"seed,omitempty"`
}

func (c *DQNConfig) withDefaults() DQNConfig {
	out := *c
	if out.Gamma == 0 {
		out.Gamma = 0.99
	}
	if out.NStep == 0 {
		out.NStep = 1
	}
	if out.BatchSize == 0 {
		out.BatchSize = 32
	}
	if out.Memory.Type == "" {
		out.Memory.Type = "replay"
	}
	if out.Memory.Capacity == 0 {
		out.Memory.Capacity = 10000
	}
	if out.Memory.Alpha == 0 {
		out.Memory.Alpha = 0.6
	}
	if out.Memory.Beta == 0 {
		out.Memory.Beta = 0.4
	}
	if out.Optimizer.Type == "" {
		out.Optimizer = optimizers.Config{Type: "adam", LearningRate: 1e-3}
	}
	if out.Exploration == (ExplorationConfig{}) {
		out.Exploration = ExplorationConfig{Initial: 1, Final: 0.1, DecaySteps: 10000}
	}
	return out
}

// IMPALAConfig configures the IMPALA agent.
type IMPALAConfig struct {
	// Backend selects "static" or "define-by-run".
	Backend string `json:"backend,omitempty"`
	// Network lists shared trunk layers; logits and value heads are added.
	Network []nn.LayerSpec `json:"network"`
	// Gamma is the discount.
	Gamma float64 `json:"gamma"`
	// RolloutLen is the rollout length T each actor produces.
	RolloutLen int `json:"rollout_len"`
	// EntropyCoeff and ValueCoeff weight the auxiliary losses.
	EntropyCoeff float64 `json:"entropy_coeff,omitempty"`
	ValueCoeff   float64 `json:"value_coeff,omitempty"`
	// Optimizer configures the learner's optimizer.
	Optimizer optimizers.Config `json:"optimizer"`
	// Seed drives initialization and action sampling.
	Seed int64 `json:"seed,omitempty"`
}

func (c *IMPALAConfig) withDefaults() IMPALAConfig {
	out := *c
	if out.Gamma == 0 {
		out.Gamma = 0.99
	}
	if out.RolloutLen == 0 {
		out.RolloutLen = 20
	}
	if out.ValueCoeff == 0 {
		out.ValueCoeff = 0.5
	}
	if out.EntropyCoeff == 0 {
		out.EntropyCoeff = 0.01
	}
	if out.Optimizer.Type == "" {
		out.Optimizer = optimizers.Config{Type: "rmsprop", LearningRate: 1e-3}
	}
	return out
}

// typedConfig discriminates agent configs by their "type" field.
type typedConfig struct {
	Type string `json:"type"`
}

// FromConfig builds an agent from a JSON document with a "type" field of
// "dqn", "apex" (DQN preset with prioritized memory + double + dueling) or
// "impala". Every other key must name a config field: a misspelled or
// removed option is an error, not silently ignored.
func FromConfig(data []byte, stateSpace spaces.Space, actionSpace *spaces.IntBox) (Agent, error) {
	var t typedConfig
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("agents: parsing config: %w", err)
	}
	switch t.Type {
	case "dqn", "apex":
		var doc struct {
			typedConfig
			DQNConfig
		}
		if err := decodeStrict(data, &doc); err != nil {
			return nil, fmt.Errorf("agents: parsing %s config: %w", t.Type, err)
		}
		cfg := doc.DQNConfig
		if t.Type == "apex" {
			cfg.Memory.Type = "prioritized"
			cfg.DoubleQ = true
			cfg.Dueling = true
			if cfg.NStep == 0 {
				cfg.NStep = 3
			}
		}
		return NewDQN(cfg, stateSpace, actionSpace)
	case "impala":
		var doc struct {
			typedConfig
			IMPALAConfig
		}
		if err := decodeStrict(data, &doc); err != nil {
			return nil, fmt.Errorf("agents: parsing impala config: %w", err)
		}
		return NewIMPALA(doc.IMPALAConfig, stateSpace, actionSpace)
	default:
		return nil, fmt.Errorf("agents: unknown agent type %q", t.Type)
	}
}

// decodeStrict is json.Unmarshal that rejects keys naming no field.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
