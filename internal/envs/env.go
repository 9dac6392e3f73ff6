// Package envs provides simulation environments. The paper evaluates on
// Atari Pong (ALE) and a DeepMind Lab 3D task; neither is available to a
// pure-Go reproduction, so PongSim reimplements Pong's dynamics (paddles,
// ball, ±21 scoring, frame-skip, optional 84×84 pixel rendering) at
// laptop-trainable scale, and LabyrinthSim stands in for the more expensive
// DM-Lab rendering with a configurable per-step render cost. CartPole and
// GridWorld cover quickstart and integration-test workloads.
package envs

import (
	"sync/atomic"

	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// Env is a discrete-action environment.
//
// Observations may be backed by buffers the environment reuses across calls
// (PongSim does; see its doc). Callers that retain an observation across a
// later Step/Reset must copy it first — the same borrowing discipline as
// VectorEnv's batched outputs.
type Env interface {
	// StateSpace describes observations.
	StateSpace() spaces.Space
	// ActionSpace describes the discrete action set.
	ActionSpace() *spaces.IntBox
	// Reset starts a new episode and returns the first observation.
	Reset() *tensor.Tensor
	// Step applies an action, returning the next observation, the reward,
	// and whether the episode ended.
	Step(action int) (obs *tensor.Tensor, reward float64, done bool)
}

// FinishedWindow is the number of recent completed-episode returns a
// VectorEnv retains. Continuous live runs finish episodes indefinitely, so
// the record is a bounded ring, not an append-only slice.
const FinishedWindow = 512

// VectorEnv steps a batch of environment copies with auto-reset — the
// vectorized sample collection of the paper's worker benchmarks (Fig. 5b,
// 7a). Environments are called sequentially, matching the paper's setup.
//
// VectorEnv is single-caller: States/StepAll/ResetAll must not be invoked
// concurrently. Concurrent misuse panics with a diagnostic rather than
// corrupting the shared output buffers (DESIGN.md §5.13).
type VectorEnv struct {
	Envs []Env

	states  []*tensor.Tensor
	started bool

	// Reused output buffers: the batched observation tensor and the
	// reward/terminal slices handed out by States/StepAll/ResetAll are
	// borrowed — valid until the next States/StepAll/ResetAll call, which
	// overwrites them in place. Callers that retain observations across
	// steps (n-step windows, replay insertion) must copy the rows they keep
	// before stepping again.
	batchBuf  *tensor.Tensor
	rewardBuf []float64
	termBuf   []float64

	// EpisodeRewards accumulates the running return per environment.
	EpisodeRewards []float64

	// finished is a bounded ring of the most recent FinishedWindow
	// completed-episode returns; finishedCur is the next overwrite index once
	// the ring is full.
	finished    []float64
	finishedCur int

	// inUse is the single-caller misuse guard: set for the duration of every
	// mutating API call, so overlapping calls fail fast instead of racing on
	// the shared buffers above.
	inUse atomic.Bool
}

// NewVectorEnv wraps the given environment copies. At least one environment
// is required: a zero-env vector has no element shape to batch over, so the
// constructor panics with a diagnostic instead of letting the first
// States/StepAll call fail inside tensor.Stack.
func NewVectorEnv(envs ...Env) *VectorEnv {
	if len(envs) == 0 {
		panic("envs: NewVectorEnv requires at least one environment")
	}
	return &VectorEnv{
		Envs:           envs,
		states:         make([]*tensor.Tensor, len(envs)),
		EpisodeRewards: make([]float64, len(envs)),
	}
}

// acquire flags the VectorEnv as mid-call, panicking on overlap — the
// single-caller contract made loud. release is its deferred counterpart.
func (v *VectorEnv) acquire() {
	if !v.inUse.CompareAndSwap(false, true) {
		panic("envs: concurrent VectorEnv call: States/StepAll/ResetAll are single-caller")
	}
}

func (v *VectorEnv) release() { v.inUse.Store(false) }

// recordFinished appends one completed-episode return to the bounded ring.
func (v *VectorEnv) recordFinished(r float64) {
	if len(v.finished) < FinishedWindow {
		v.finished = append(v.finished, r)
	} else {
		v.finished[v.finishedCur] = r
		v.finishedCur = (v.finishedCur + 1) % FinishedWindow
	}
}

// Len returns the number of environments.
func (v *VectorEnv) Len() int { return len(v.Envs) }

// ResetAll resets every environment and returns the batched observation.
// The returned tensor is borrowed until the next States/StepAll/ResetAll
// call (see the buffer-reuse note on VectorEnv).
func (v *VectorEnv) ResetAll() *tensor.Tensor {
	v.acquire()
	defer v.release()
	return v.resetAll()
}

func (v *VectorEnv) resetAll() *tensor.Tensor {
	for i, e := range v.Envs {
		v.states[i] = e.Reset()
		v.EpisodeRewards[i] = 0
	}
	v.started = true
	return v.batch()
}

// States returns the current batched observation. The returned tensor is
// borrowed until the next States/StepAll/ResetAll call (see the buffer-reuse
// note on VectorEnv).
func (v *VectorEnv) States() *tensor.Tensor {
	v.acquire()
	defer v.release()
	if !v.started {
		return v.resetAll()
	}
	return v.batch()
}

// StepAll applies one action per environment, auto-resetting finished
// episodes, and returns batched next observations, rewards and terminals.
// The returned observations are the *post-reset* states (standard vectorized
// semantics); terminals mark which transitions ended an episode. All three
// return values are borrowed until the next States/StepAll/ResetAll call
// (see the buffer-reuse note on VectorEnv).
func (v *VectorEnv) StepAll(actions []int) (obs *tensor.Tensor, rewards, terminals []float64) {
	v.acquire()
	defer v.release()
	if len(actions) < len(v.Envs) {
		panic("envs: StepAll needs one action per environment")
	}
	if !v.started {
		v.resetAll()
	}
	if v.rewardBuf == nil {
		v.rewardBuf = make([]float64, len(v.Envs))
		v.termBuf = make([]float64, len(v.Envs))
	}
	rewards, terminals = v.rewardBuf, v.termBuf
	for i, e := range v.Envs {
		s, r, done := e.Step(actions[i])
		rewards[i] = r
		terminals[i] = 0
		v.EpisodeRewards[i] += r
		if done {
			terminals[i] = 1
			v.recordFinished(v.EpisodeRewards[i])
			v.EpisodeRewards[i] = 0
			s = e.Reset()
		}
		v.states[i] = s
	}
	return v.batch(), rewards, terminals
}

// batch restacks the per-env states into the reused output buffer. The
// first call (or an observation-shape change, e.g. a wrapper swap)
// allocates; steady-state calls only copy.
func (v *VectorEnv) batch() *tensor.Tensor {
	elem := v.states[0].Shape()
	b := v.batchBuf
	if b == nil || b.Dim(0) != len(v.states) || !tensor.SameShape(b.Shape()[1:], elem) {
		v.batchBuf = tensor.Stack(v.states...)
		return v.batchBuf
	}
	n := v.states[0].Size()
	for i, s := range v.states {
		if !tensor.SameShape(s.Shape(), elem) {
			v.batchBuf = tensor.Stack(v.states...) // falls back to Stack's panic path
			return v.batchBuf
		}
		copy(b.Data()[i*n:(i+1)*n], s.Data())
	}
	return b
}

// FinishedEpisodes returns a copy of the retained completed-episode returns
// in completion order (oldest first), at most FinishedWindow entries.
func (v *VectorEnv) FinishedEpisodes() []float64 {
	out := make([]float64, 0, len(v.finished))
	if len(v.finished) < FinishedWindow {
		return append(out, v.finished...)
	}
	out = append(out, v.finished[v.finishedCur:]...)
	return append(out, v.finished[:v.finishedCur]...)
}

// MeanFinishedReward averages the most recent n completed episode returns
// (all retained ones if fewer or n<=0); returns 0 with ok=false when none
// are retained. Only the FinishedWindow most recent completions are visible.
func (v *VectorEnv) MeanFinishedReward(n int) (float64, bool) {
	f := v.FinishedEpisodes()
	if len(f) == 0 {
		return 0, false
	}
	if n > 0 && len(f) > n {
		f = f[len(f)-n:]
	}
	sum := 0.0
	for _, r := range f {
		sum += r
	}
	return sum / float64(len(f)), true
}
