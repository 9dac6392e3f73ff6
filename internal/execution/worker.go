// Package execution implements sample-collection workers: the RLgraph-style
// vectorized worker that batches acting, episode accounting and
// post-processing (n-step returns, worker-side priorities) to minimize
// executor calls — the design the paper credits for its throughput wins over
// RLlib's policy evaluators (§5.1).
package execution

import (
	"fmt"

	"rlgraph/internal/agents"
	"rlgraph/internal/envs"
	"rlgraph/internal/tensor"
)

// Batch is a collected set of (possibly n-step) transitions.
type Batch struct {
	S, A, R, NS, T *tensor.Tensor
	// Prio holds worker-side initial priorities (nil when not computed).
	Prio *tensor.Tensor
	// Frames counts environment frames including frame-skip.
	Frames int
	// Steps counts worker act/step iterations.
	Steps int
}

// Len returns the number of transitions.
func (b *Batch) Len() int {
	if b == nil || b.A == nil {
		return 0
	}
	return b.A.Size()
}

// Concat merges batches (used by replay shards).
func Concat(batches ...*Batch) *Batch {
	var ss, as, rs, nss, ts []*tensor.Tensor
	frames, steps := 0, 0
	for _, b := range batches {
		if b.Len() == 0 {
			continue
		}
		ss = append(ss, b.S)
		as = append(as, b.A)
		rs = append(rs, b.R)
		nss = append(nss, b.NS)
		ts = append(ts, b.T)
		frames += b.Frames
		steps += b.Steps
	}
	if len(ss) == 0 {
		return &Batch{}
	}
	return &Batch{
		S: tensor.Concat(0, ss...), A: tensor.Concat(0, as...),
		R: tensor.Concat(0, rs...), NS: tensor.Concat(0, nss...),
		T: tensor.Concat(0, ts...), Frames: frames, Steps: steps,
	}
}

// WorkerConfig tunes sample collection.
type WorkerConfig struct {
	// NStep is the multi-step return length (1 = one-step transitions).
	NStep int
	// Gamma discounts within the n-step window.
	Gamma float64
	// ComputePriorities runs one batched compute_priorities call per Sample
	// (Ape-X worker-side prioritization).
	ComputePriorities bool
	// FramesPerStep is the frame-skip multiplier for frame accounting.
	FramesPerStep int
}

// pending is one not-yet-matured transition in an n-step window.
type pending struct {
	s      *tensor.Tensor
	action float64
	reward float64
}

// Worker collects samples from a vector of environments using an agent for
// (batched) action selection.
type Worker struct {
	Agent *agents.DQN
	Vec   *envs.VectorEnv
	cfg   WorkerConfig

	windows [][]pending // per-env n-step windows

	// rowPool is a free list of element-shaped observation rows. Sample
	// copies every retained observation out of the VectorEnv's borrowed
	// batch buffer into pooled rows, and returns them after the emitted
	// transitions are stacked into the output Batch — steady-state sampling
	// allocates no fresh row storage.
	rowPool []*tensor.Tensor
	acts    []int // reused action scratch

	// TotalFrames accumulates frames over the worker's lifetime.
	TotalFrames int
}

// NewWorker wires an agent to a vector env.
func NewWorker(agent *agents.DQN, vec *envs.VectorEnv, cfg WorkerConfig) *Worker {
	if cfg.NStep <= 0 {
		cfg.NStep = 1
	}
	if cfg.Gamma == 0 {
		cfg.Gamma = 0.99
	}
	if cfg.FramesPerStep <= 0 {
		cfg.FramesPerStep = 1
	}
	return &Worker{
		Agent:   agent,
		Vec:     vec,
		cfg:     cfg,
		windows: make([][]pending, vec.Len()),
	}
}

// SetWeights installs learner weights into the worker's agent.
func (w *Worker) SetWeights(weights map[string]*tensor.Tensor) error {
	return w.Agent.SetWeights(weights)
}

// getRow copies row i of the batched observation src into a pooled
// element-shaped tensor, detaching it from src's (borrowed, reused) storage.
func (w *Worker) getRow(src *tensor.Tensor, i int) *tensor.Tensor {
	n := src.Size() / src.Dim(0)
	var r *tensor.Tensor
	if k := len(w.rowPool); k > 0 {
		r = w.rowPool[k-1]
		w.rowPool = w.rowPool[:k-1]
		if !tensor.SameShape(r.Shape(), src.Shape()[1:]) {
			r = nil // observation shape changed: drop the stale buffer
		}
	}
	if r == nil {
		r = tensor.New(src.Shape()[1:]...)
	}
	copy(r.Data(), src.Data()[i*n:(i+1)*n])
	return r
}

// putRows returns emitted rows to the pool. Consecutive duplicates are
// skipped: a terminal flush emits the same next-state row once per matured
// window entry, and pooling it twice would hand the same buffer to two
// future transitions.
func (w *Worker) putRows(rows []*tensor.Tensor) {
	var prev *tensor.Tensor
	for _, r := range rows {
		if r == prev {
			continue
		}
		w.rowPool = append(w.rowPool, r)
		prev = r
	}
}

// Sample runs numSteps vectorized act/step iterations and returns the
// matured n-step transitions. Acting is one batched call per step; episode
// accounting is array-based; post-processing (priorities) is one batched
// call per task.
func (w *Worker) Sample(numSteps int) (*Batch, error) {
	var outS, outNS []*tensor.Tensor
	var outA, outR, outT []float64

	emit := func(p pending, ret float64, ns *tensor.Tensor, terminal float64) {
		outS = append(outS, p.s)
		outA = append(outA, p.action)
		outR = append(outR, ret)
		outNS = append(outNS, ns)
		outT = append(outT, terminal)
	}

	// nstepReturn folds the window's rewards into a discounted sum from
	// index i onward.
	nstepReturn := func(win []pending, i int) float64 {
		ret := 0.0
		g := 1.0
		for j := i; j < len(win); j++ {
			ret += g * win[j].reward
			g *= w.cfg.Gamma
		}
		return ret
	}

	if w.acts == nil {
		w.acts = make([]int, w.Vec.Len())
	}
	for step := 0; step < numSteps; step++ {
		states := w.Vec.States()
		actions, err := w.Agent.GetActions(states, true)
		if err != nil {
			return nil, fmt.Errorf("execution: acting: %w", err)
		}
		acts := w.acts
		for i := range acts {
			acts[i] = int(actions.Data()[i])
		}
		// The batched states tensor is borrowed from the VectorEnv and will
		// be overwritten by StepAll, so the retained prev-state rows are
		// copied out (into pooled buffers) before stepping. The reward is
		// filled in after the step.
		for i := 0; i < w.Vec.Len(); i++ {
			w.windows[i] = append(w.windows[i], pending{
				s:      w.getRow(states, i),
				action: float64(acts[i]),
			})
		}
		nextStates, rewards, terms := w.Vec.StepAll(acts)
		for i := 0; i < w.Vec.Len(); i++ {
			win := w.windows[i]
			win[len(win)-1].reward = rewards[i]
			if terms[i] == 1 {
				// Terminal: flush the whole window with truncated returns.
				// The next-state row is materialized lazily — only steps
				// that emit transitions copy it.
				ns := w.getRow(nextStates, i)
				for j, p := range win {
					emit(p, nstepReturn(win, j), ns, 1)
				}
				w.windows[i] = win[:0]
				continue
			}
			if len(win) >= w.cfg.NStep {
				p := win[0]
				emit(p, nstepReturn(win, 0), w.getRow(nextStates, i), 0)
				w.windows[i] = win[1:]
			}
		}
	}

	frames := numSteps * w.Vec.Len() * w.cfg.FramesPerStep
	w.TotalFrames += frames
	if len(outA) == 0 {
		return &Batch{Frames: frames, Steps: numSteps}, nil
	}
	b := &Batch{
		S:      tensor.Stack(outS...),
		A:      tensor.FromSlice(outA, len(outA)),
		R:      tensor.FromSlice(outR, len(outR)),
		NS:     tensor.Stack(outNS...),
		T:      tensor.FromSlice(outT, len(outT)),
		Frames: frames,
		Steps:  numSteps,
	}
	// Stack copied the rows into the batch, so the pooled buffers can be
	// reused by the next Sample. Rows still pending in n-step windows are
	// intentionally not returned — they have not been emitted yet.
	w.putRows(outS)
	w.putRows(outNS)
	if w.cfg.ComputePriorities {
		prio, err := w.Agent.ComputePriorities(b.S, b.A, b.R, b.NS, b.T)
		if err != nil {
			return nil, fmt.Errorf("execution: priorities: %w", err)
		}
		b.Prio = prio
	}
	return b, nil
}

// MeanReward reports the mean of the last n finished episode returns.
func (w *Worker) MeanReward(n int) (float64, bool) { return w.Vec.MeanFinishedReward(n) }
