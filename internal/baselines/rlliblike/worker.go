// Package rlliblike reimplements the Ape-X sample-collection and execution
// plan in the style the paper attributes to RLlib v0.5.2 (§5.1): policy
// evaluators that post-process batches incrementally through multiple small
// executor calls, keep per-environment episode state in map-backed
// structures, and compute priorities per step rather than per task. The
// algorithm, hyper-parameters and model are identical to the RLgraph worker;
// only the execution plan differs — so benchmark gaps measure exactly the
// design difference the paper analyzes.
package rlliblike

import (
	"fmt"

	"rlgraph/internal/agents"
	"rlgraph/internal/envs"
	"rlgraph/internal/execution"
	"rlgraph/internal/tensor"
)

// episodeState is the per-environment accounting record. RLlib's evaluators
// track episodes in per-env dictionaries; the map-of-maps layout (rebuilt
// per step) reproduces that constant-factor overhead.
type episodeState struct {
	fields map[string]float64
	window []map[string]interface{}
}

// Worker is the RLlib-style policy evaluator.
type Worker struct {
	Agent *agents.DQN
	Vec   *envs.VectorEnv
	nStep int
	gamma float64
	prios bool
	fps   int

	episodes map[int]*episodeState

	// TotalFrames accumulates frames over the worker's lifetime.
	TotalFrames int
	// ExecutorCalls counts agent executor invocations per Sample, the
	// metric distinguishing this plan from the batched RLgraph worker.
	ExecutorCalls int
}

// NewWorker wires an agent to a vector env with n-step post-processing.
func NewWorker(agent *agents.DQN, vec *envs.VectorEnv, nStep int, gamma float64, prios bool, framesPerStep int) *Worker {
	if nStep <= 0 {
		nStep = 1
	}
	if framesPerStep <= 0 {
		framesPerStep = 1
	}
	return &Worker{
		Agent: agent, Vec: vec, nStep: nStep, gamma: gamma, prios: prios,
		fps:      framesPerStep,
		episodes: make(map[int]*episodeState),
	}
}

// SetWeights installs learner weights.
func (w *Worker) SetWeights(weights map[string]*tensor.Tensor) error {
	return w.Agent.SetWeights(weights)
}

// Sample collects numSteps steps. Contrasts with the RLgraph worker:
//   - priorities are computed with one executor call per matured transition
//     (incremental post-processing through many small session calls);
//   - episode accounting allocates map records per env per step.
func (w *Worker) Sample(numSteps int) (*execution.Batch, error) {
	var outS, outNS []*tensor.Tensor
	var outA, outR, outT, outP []float64

	emit := func(rec map[string]interface{}, ret float64, ns *tensor.Tensor, terminal float64) error {
		s := rec["obs"].(*tensor.Tensor)
		a := rec["action"].(float64)
		outS = append(outS, s)
		outA = append(outA, a)
		outR = append(outR, ret)
		outNS = append(outNS, ns)
		outT = append(outT, terminal)
		if w.prios {
			// Per-transition priority computation: one executor call each.
			prio, err := w.Agent.ComputePriorities(
				s.Reshape(append([]int{1}, s.Shape()...)...),
				tensor.FromSlice([]float64{a}, 1),
				tensor.FromSlice([]float64{ret}, 1),
				ns.Reshape(append([]int{1}, ns.Shape()...)...),
				tensor.FromSlice([]float64{terminal}, 1))
			if err != nil {
				return err
			}
			w.ExecutorCalls++
			outP = append(outP, prio.Data()[0])
		}
		return nil
	}

	nstepReturn := func(win []map[string]interface{}, i int) float64 {
		ret, g := 0.0, 1.0
		for j := i; j < len(win); j++ {
			ret += g * win[j]["reward"].(float64)
			g *= w.gamma
		}
		return ret
	}

	for step := 0; step < numSteps; step++ {
		states := w.Vec.States()
		actions, err := w.Agent.GetActions(states, true)
		if err != nil {
			return nil, fmt.Errorf("rlliblike: acting: %w", err)
		}
		w.ExecutorCalls++
		acts := make([]int, w.Vec.Len())
		for i := range acts {
			acts[i] = int(actions.Data()[i])
		}
		// The batched states tensor is borrowed from the VectorEnv (StepAll
		// overwrites it in place), so the per-env rows are copied out before
		// stepping.
		prevRows := make([]*tensor.Tensor, w.Vec.Len())
		for i := range prevRows {
			prevRows[i] = tensor.Row(states, i)
		}
		nextStates, rewards, terms := w.Vec.StepAll(acts)
		for i := 0; i < w.Vec.Len(); i++ {
			ep := w.episodes[i]
			if ep == nil {
				ep = &episodeState{fields: map[string]float64{}}
				w.episodes[i] = ep
			}
			// Dictionary-based per-step accounting (rebuilt every step).
			ep.fields = map[string]float64{
				"t":             float64(step),
				"episode_len":   ep.fields["episode_len"] + 1,
				"episode_rew":   ep.fields["episode_rew"] + rewards[i],
				"last_action":   float64(acts[i]),
				"last_reward":   rewards[i],
				"env_id":        float64(i),
				"agent_updates": ep.fields["agent_updates"],
			}
			ep.window = append(ep.window, map[string]interface{}{
				"obs":    prevRows[i],
				"action": float64(acts[i]),
				"reward": rewards[i],
			})
			ns := tensor.Row(nextStates, i)
			if terms[i] == 1 {
				for j, rec := range ep.window {
					if err := emit(rec, nstepReturn(ep.window, j), ns, 1); err != nil {
						return nil, err
					}
				}
				ep.window = nil
				ep.fields = map[string]float64{}
				continue
			}
			if len(ep.window) >= w.nStep {
				if err := emit(ep.window[0], nstepReturn(ep.window, 0), ns, 0); err != nil {
					return nil, err
				}
				ep.window = ep.window[1:]
			}
		}
	}

	frames := numSteps * w.Vec.Len() * w.fps
	w.TotalFrames += frames
	if len(outA) == 0 {
		return &execution.Batch{Frames: frames, Steps: numSteps}, nil
	}
	b := &execution.Batch{
		S:      tensor.Stack(outS...),
		A:      tensor.FromSlice(outA, len(outA)),
		R:      tensor.FromSlice(outR, len(outR)),
		NS:     tensor.Stack(outNS...),
		T:      tensor.FromSlice(outT, len(outT)),
		Frames: frames,
		Steps:  numSteps,
	}
	if w.prios {
		b.Prio = tensor.FromSlice(outP, len(outP))
	}
	return b, nil
}

// MeanReward reports the mean of the last n finished episode returns.
func (w *Worker) MeanReward(n int) (float64, bool) { return w.Vec.MeanFinishedReward(n) }
