package distexec

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/components/misc"
	"rlgraph/internal/envs"
	"rlgraph/internal/exec"
	"rlgraph/internal/raysim"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// maxActorRestarts caps supervised restarts per rollout actor. A restarted
// actor is rebuilt from the actor factory and re-synced with learner
// weights.
const maxActorRestarts = 2

// IMPALAConfig parameterizes the actor-learner run.
type IMPALAConfig struct {
	// NumActors is the number of rollout-producing actors.
	NumActors int
	// QueueCapacity bounds the shared rollout queue.
	QueueCapacity int
	// FramesPerStep is the env frame multiplier for accounting.
	FramesPerStep int
	// RestartBackoff is the initial window of the actors' full-jitter
	// restart backoff (raysim.Policy), doubling to 2s (default 50ms).
	RestartBackoff time.Duration
	// BaselineOverheads enables the DeepMind-reference inefficiencies
	// (redundant actor variable assignments, unstage preprocessing copies)
	// the paper identified (Fig. 9's DeepMind-reference baseline).
	BaselineOverheads bool
}

func (c *IMPALAConfig) withDefaults() IMPALAConfig {
	out := *c
	if out.NumActors == 0 {
		out.NumActors = 4
	}
	if out.QueueCapacity == 0 {
		out.QueueCapacity = 16
	}
	if out.FramesPerStep == 0 {
		out.FramesPerStep = 1
	}
	if out.RestartBackoff == 0 {
		out.RestartBackoff = 50 * time.Millisecond
	}
	return out
}

// Rollout is one actor-produced trajectory of length T.
type Rollout struct {
	States       *tensor.Tensor // [T, S...]
	Actions      *tensor.Tensor // [T]
	Rewards      *tensor.Tensor // [T]
	Discounts    *tensor.Tensor // [T]
	BehaviorLogp *tensor.Tensor // [T]
	Bootstrap    *tensor.Tensor // [1, S...]
	Frames       int
}

// IMPALAResult aggregates a run's metrics.
type IMPALAResult struct {
	Frames   int64
	Elapsed  time.Duration
	FPS      float64
	Updates  int
	Rollouts int64
	// Restarts counts supervised rollout-actor re-spawns.
	Restarts int
	// Degraded is how long the run continued after permanently losing an
	// actor (zero when every actor survived or recovered).
	Degraded time.Duration
}

// IMPALAExecutor runs the queue-fed actor-learner architecture: actors step
// their own environment copies with (periodically refreshed) policy weights,
// push fixed-length rollouts into the globally shared blocking queue, and
// the learner dequeues through a staging area and applies V-trace updates —
// the structure of the paper's Fig. 9 workload. Rollout actors are
// supervised: a crash (error or panic) rebuilds the actor from its factory
// through a raysim.Supervisor, and the run degrades gracefully until no
// actor remains.
type IMPALAExecutor struct {
	cfg     IMPALAConfig
	learner *agents.IMPALA
	actors  []*agents.IMPALA
	envsL   []envs.Env
	factory func(i int) (*agents.IMPALA, envs.Env, error)

	queue   *misc.FIFOQueue
	queueEx exec.Executor
	staging *misc.StagingArea
	stageEx exec.Executor

	frames   int64
	rollouts int64
	updates  int

	// learnerMu serializes learner weight reads (actors) against updates
	// (learner loop) — the parameter-server consistency point.
	learnerMu sync.Mutex
}

// NewIMPALAExec wires the executor. learner must be built; actorFactory
// returns a built actor agent plus its environment and is re-invoked on
// supervised restarts.
func NewIMPALAExec(cfg IMPALAConfig, learner *agents.IMPALA, stateSpace spaces.Space,
	actorFactory func(i int) (*agents.IMPALA, envs.Env, error)) (*IMPALAExecutor, error) {
	cfg = cfg.withDefaults()
	e := &IMPALAExecutor{cfg: cfg, learner: learner, factory: actorFactory}

	for i := 0; i < cfg.NumActors; i++ {
		a, env, err := actorFactory(i)
		if err != nil {
			return nil, err
		}
		e.actors = append(e.actors, a)
		e.envsL = append(e.envsL, env)
	}

	// Shared blocking queue and staging area, built as component graphs on
	// the learner's backend.
	backendName := learner.Executor().BackendName()
	sB := stateSpace.WithBatchRank()
	fB := spaces.NewFloatBox().WithBatchRank()
	e.queue = misc.NewFIFOQueue("rollout-queue", cfg.QueueCapacity, 6)
	var err error
	e.queueEx, err = buildStandalone(backendName, e.queue.Component, exec.InputSpaces{
		"enqueue": {sB, fB, fB, fB, fB, sB},
		"dequeue": {},
	})
	if err != nil {
		return nil, err
	}
	e.staging = misc.NewStagingArea("staging", 6)
	e.stageEx, err = buildStandalone(backendName, e.staging.Component, exec.InputSpaces{
		"put": {sB, fB, fB, fB, fB, sB},
		"get": {},
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// collectRollout runs T steps in the actor's env.
func (e *IMPALAExecutor) collectRollout(a *agents.IMPALA, env envs.Env, state *tensor.Tensor) (*Rollout, *tensor.Tensor, error) {
	T := a.RolloutLen()
	gamma := a.Gamma()
	var states, nexts []*tensor.Tensor
	actions := make([]float64, T)
	rewards := make([]float64, T)
	discounts := make([]float64, T)
	logps := make([]float64, T)

	cur := state
	for t := 0; t < T; t++ {
		st := cur.Reshape(append([]int{1}, cur.Shape()...)...)
		acts, logp, err := a.ActSample(st)
		if err != nil {
			return nil, nil, err
		}
		action := int(acts.Data()[0])
		next, r, done := env.Step(action)
		// Observations are borrowed (envs may reuse their obs buffers), and
		// the rollout retains them across subsequent Steps — clone each one.
		next = next.Clone()
		states = append(states, cur)
		actions[t] = float64(action)
		rewards[t] = r
		logps[t] = logp.Data()[0]
		if done {
			discounts[t] = 0
			next = env.Reset().Clone()
		} else {
			discounts[t] = gamma
		}
		nexts = append(nexts, next)
		cur = next
	}
	ro := &Rollout{
		States:       tensor.Stack(states...),
		Actions:      tensor.FromSlice(actions, T),
		Rewards:      tensor.FromSlice(rewards, T),
		Discounts:    tensor.FromSlice(discounts, T),
		BehaviorLogp: tensor.FromSlice(logps, T),
		Bootstrap:    tensor.Stack(nexts[T-1]),
		Frames:       T * e.cfg.FramesPerStep,
	}
	return ro, cur, nil
}

// impalaActorState is one rollout actor's mutable loop state; restarts swap
// the agent and environment in place.
type impalaActorState struct {
	a     *agents.IMPALA
	env   envs.Env
	state *tensor.Tensor
}

// actorIter performs one sync+collect+enqueue iteration, recovering panics
// in agent or environment code into errors so the supervisor can restart
// the actor instead of the process dying.
func (e *IMPALAExecutor) actorIter(st *impalaActorState) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("distexec: impala actor panicked: %v", r)
		}
	}()
	// Refresh policy weights from the learner before every rollout.
	e.learnerMu.Lock()
	w := e.learner.GetWeights()
	e.learnerMu.Unlock()
	if err := st.a.SetWeights(w); err != nil {
		return err
	}
	if e.cfg.BaselineOverheads {
		// DM reference: redundant variable assignments in the actor
		// (paper §5.1) — weight tensors are re-assigned although nothing
		// changed. The reference executed these inside each actor step;
		// we charge the equivalent total per rollout.
		for k := 0; k < 2; k++ {
			if err := st.a.SetWeights(st.a.GetWeights()); err != nil {
				return err
			}
		}
	}
	ro, next, err := e.collectRollout(st.a, st.env, st.state)
	if err != nil {
		return err
	}
	st.state = next
	if _, err := e.queueEx.Execute("enqueue",
		ro.States, ro.Actions, ro.Rewards, ro.Discounts,
		ro.BehaviorLogp, ro.Bootstrap); err != nil {
		return err
	}
	atomic.AddInt64(&e.frames, int64(ro.Frames))
	atomic.AddInt64(&e.rollouts, 1)
	return nil
}

// Run drives actors and learner until the wall-clock duration elapses.
// Actor crashes are absorbed by the supervisor; the run fails only when the
// learner errors or no actor survives.
func (e *IMPALAExecutor) Run(duration time.Duration) (*IMPALAResult, error) {
	start := time.Now()
	ctx, stop := context.WithCancelCause(context.Background())
	// Closing the queue unblocks a learner parked in dequeue on an empty
	// queue and actors parked in enqueue on a full one: without it, losing
	// every actor would deadlock the run.
	context.AfterFunc(ctx, e.queue.Close)
	sup := raysim.NewSupervisor(raysim.Policy{Budget: maxActorRestarts,
		Backoff: e.cfg.RestartBackoff, Cap: 2 * time.Second}, len(e.actors))

	var wg sync.WaitGroup
	for i := range e.actors {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &impalaActorState{a: e.actors[i], env: e.envsL[i]}
			st.state = st.env.Reset().Clone()
			// A rebuilt actor gets the learner's weights and a fresh episode.
			respawn := func() error {
				na, nenv, err := e.factory(i)
				if err != nil {
					return err
				}
				e.learnerMu.Lock()
				w := e.learner.GetWeights()
				e.learnerMu.Unlock()
				if err := na.SetWeights(w); err != nil {
					return err
				}
				st.a, st.env = na, nenv
				st.state = st.env.Reset().Clone()
				return nil
			}
			m := sup.Member(rand.New(rand.NewSource(int64(i))))
			runMember(ctx, stop, sup, m, fmt.Sprintf("impala actor %d", i),
				func() error { return e.actorIter(st) }, respawn)
		}(i)
	}

	// Learner: dequeue → stage → update. The staging area gives the
	// one-batch pipeline delay that hides transfer latency on real GPUs.
	deadline := start.Add(duration)
	for time.Now().Before(deadline) && !stopping(ctx) {
		outs, err := e.queueEx.Execute("dequeue")
		if err != nil {
			stop(err) // a no-op when the queue closed because the run stopped
			break
		}
		if e.cfg.BaselineOverheads {
			// DM reference: unneeded preprocessing of tensors after
			// unstaging — extra full copies of the batch.
			for i := range outs {
				outs[i] = outs[i].Clone()
				outs[i] = tensor.Scale(outs[i], 1)
			}
		}
		if _, err := e.stageEx.Execute("put", outs...); err != nil {
			stop(err)
			break
		}
		if e.staging.Depth() < 2 {
			continue // fill the pipeline before the first update
		}
		staged, err := e.stageEx.Execute("get")
		if err != nil {
			stop(err)
			break
		}
		e.learnerMu.Lock()
		_, err = e.learner.UpdateRollout(
			staged[0], staged[1], staged[2], staged[3], staged[4], staged[5])
		e.learnerMu.Unlock()
		if err != nil {
			stop(err)
			break
		}
		e.updates++
	}
	stop(nil)
	wg.Wait()

	elapsed := time.Since(start)
	return &IMPALAResult{
		Frames:   atomic.LoadInt64(&e.frames),
		Elapsed:  elapsed,
		FPS:      float64(atomic.LoadInt64(&e.frames)) / elapsed.Seconds(),
		Updates:  e.updates,
		Rollouts: atomic.LoadInt64(&e.rollouts),
		Restarts: int(sup.Restarts()),
		Degraded: sup.Degraded(),
	}, runErr(ctx)
}
