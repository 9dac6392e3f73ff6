package distexec

import (
	"fmt"
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

// IMPALAConfig parameterizes the actor-learner run.
type IMPALAConfig struct {
	// NumActors is the number of rollout-producing actors.
	NumActors int
	// QueueCapacity bounds the shared rollout queue.
	QueueCapacity int
	// BatchRollouts is how many rollouts the learner consumes per update.
	BatchRollouts int
	// SyncWeightsEvery pulls fresh weights into actors every N rollouts.
	SyncWeightsEvery int
	// FramesPerStep is the env frame multiplier for accounting.
	FramesPerStep int
	// MaxActorRestarts caps supervised restarts per rollout actor
	// (default 2, negative = never restart). A restarted actor is rebuilt
	// from the actor factory and re-synced with learner weights.
	MaxActorRestarts int
	// MinHealthyActors fails the run when fewer actors survive (default 1).
	MinHealthyActors int
	// RestartBackoff is the initial supervised-restart window; it doubles
	// per retry up to a 2s cap (default 50ms). The actual sleep is drawn
	// with full jitter — uniform in [0, window) — so simultaneous failures
	// don't restart in lockstep.
	RestartBackoff time.Duration
	// BaselineOverheads enables the DeepMind-reference inefficiencies
	// (redundant actor variable assignments, unstage preprocessing copies)
	// the paper identified; see internal/baselines/dmimpala.
	BaselineOverheads bool
	// PublishTo, when non-nil, pushes a learner weight snapshot to this
	// parameter server every PublishEvery updates — the live
	// training→serving weight-sync loop.
	PublishTo *ParameterServer
	// PublishEvery is the update interval between publishes (default 10;
	// only meaningful with PublishTo).
	PublishEvery int
}

func (c *IMPALAConfig) withDefaults() IMPALAConfig {
	out := *c
	if out.NumActors == 0 {
		out.NumActors = 4
	}
	if out.QueueCapacity == 0 {
		out.QueueCapacity = 16
	}
	if out.BatchRollouts == 0 {
		out.BatchRollouts = 1
	}
	if out.SyncWeightsEvery == 0 {
		out.SyncWeightsEvery = 1
	}
	if out.FramesPerStep == 0 {
		out.FramesPerStep = 1
	}
	switch {
	case out.MaxActorRestarts == 0:
		out.MaxActorRestarts = 2
	case out.MaxActorRestarts < 0:
		out.MaxActorRestarts = 0
	}
	if out.MinHealthyActors == 0 {
		out.MinHealthyActors = 1
	}
	if out.RestartBackoff == 0 {
		out.RestartBackoff = 50 * time.Millisecond
	}
	if out.PublishEvery == 0 {
		out.PublishEvery = 10
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
	// Published counts weight snapshots pushed to PublishTo.
	Published int
}

// IMPALAExecutor runs the queue-fed actor-learner architecture: actors step
// their own environment copies with (periodically refreshed) policy weights,
// push fixed-length rollouts into the globally shared blocking queue, and
// the learner dequeues through a staging area and applies V-trace updates —
// the structure of the paper's Fig. 9 workload. Rollout actors are
// supervised: a crash (error or panic) rebuilds the actor from its factory
// with capped exponential backoff, and the run degrades gracefully until
// fewer than MinHealthyActors remain.
type IMPALAExecutor struct {
	cfg     IMPALAConfig
	learner *agents.IMPALA
	actors  []*agents.IMPALA
	envsL   []envs.Env
	factory func(i int) (*agents.IMPALA, envs.Env, error)

	queue   *misc.FIFOQueue
	queueCT *exec.ComponentTest
	staging *misc.StagingArea
	stageCT *exec.ComponentTest

	frames   int64
	rollouts int64
	updates  int

	restarts   int64
	healthy    int64
	firstDeath atomic.Int64 // unix nanos of first permanent actor loss

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

	// Shared blocking queue and staging area, built as component graphs.
	sB := stateSpace.WithBatchRank()
	fB := spaces.NewFloatBox().WithBatchRank()
	e.queue = misc.NewFIFOQueue("rollout-queue", cfg.QueueCapacity, 6)
	var err error
	e.queueCT, err = exec.NewComponentTest("define-by-run", e.queue.Component, exec.InputSpaces{
		"enqueue": {sB, fB, fB, fB, fB, sB},
		"dequeue": {},
	})
	if err != nil {
		return nil, err
	}
	e.staging = misc.NewStagingArea("staging", 6)
	e.stageCT, err = exec.NewComponentTest("define-by-run", e.staging.Component, exec.InputSpaces{
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
	n     int
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
	// Refresh policy weights from the learner.
	if st.n%e.cfg.SyncWeightsEvery == 0 {
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
	}
	ro, next, err := e.collectRollout(st.a, st.env, st.state)
	if err != nil {
		return err
	}
	st.state = next
	if _, err := e.queueCT.Test("enqueue",
		ro.States, ro.Actions, ro.Rewards, ro.Discounts,
		ro.BehaviorLogp, ro.Bootstrap); err != nil {
		return err
	}
	atomic.AddInt64(&e.frames, int64(ro.Frames))
	atomic.AddInt64(&e.rollouts, 1)
	st.n++
	return nil
}

// superviseActor rebuilds a crashed rollout actor from the factory with
// capped exponential backoff under full jitter (the actual sleep is uniform
// in [0, backoff)) and re-syncs learner weights. Returns false when the
// restart budget is exhausted or the run is stopping.
func (e *IMPALAExecutor) superviseActor(i int, st *impalaActorState, restarts *int,
	backoff *time.Duration, stop chan struct{}) bool {
	for *restarts < e.cfg.MaxActorRestarts {
		*restarts++
		select {
		case <-stop:
			return false
		case <-time.After(raysim.Jitter(*backoff)):
		}
		if *backoff *= 2; *backoff > maxRestartBackoff {
			*backoff = maxRestartBackoff
		}
		na, nenv, err := e.factory(i)
		if err != nil {
			continue
		}
		e.learnerMu.Lock()
		w := e.learner.GetWeights()
		e.learnerMu.Unlock()
		if err := na.SetWeights(w); err != nil {
			continue
		}
		atomic.AddInt64(&e.restarts, 1)
		st.a, st.env = na, nenv
		st.state = st.env.Reset().Clone()
		st.n = 1 // weights just synced; skip the immediate re-sync
		return true
	}
	return false
}

// Run drives actors and learner until the wall-clock duration elapses.
// Actor crashes are absorbed by the supervisor; the run fails only when the
// learner errors or fewer than MinHealthyActors survive.
func (e *IMPALAExecutor) Run(duration time.Duration) (*IMPALAResult, error) {
	start := time.Now()
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	var firstErr error
	var errMu sync.Mutex
	recordErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		halt()
		// Unblock a learner parked in dequeue on an empty queue — without
		// this, losing every actor would deadlock the run.
		e.queue.Close()
	}

	atomic.StoreInt64(&e.healthy, int64(e.cfg.NumActors))

	var wg sync.WaitGroup
	for i := range e.actors {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &impalaActorState{a: e.actors[i], env: e.envsL[i]}
			st.state = st.env.Reset().Clone()
			restarts := 0
			backoff := e.cfg.RestartBackoff
			for {
				if stopped(stop) {
					return
				}
				err := e.actorIter(st)
				if err == nil {
					continue
				}
				if stopped(stop) {
					return // shutdown-induced (queue closed under us)
				}
				if !e.superviseActor(i, st, &restarts, &backoff, stop) {
					if stopped(stop) {
						return
					}
					h := atomic.AddInt64(&e.healthy, -1)
					e.firstDeath.CompareAndSwap(0, time.Now().UnixNano())
					if int(h) < e.cfg.MinHealthyActors {
						recordErr(fmt.Errorf("distexec: impala actor %d lost after %d restarts, %d healthy < min %d: %w",
							i, restarts, h, e.cfg.MinHealthyActors, err))
					}
					return
				}
			}
		}(i)
	}

	// Learner: dequeue → stage → update. The staging area gives the
	// one-batch pipeline delay that hides transfer latency on real GPUs.
	deadline := start.Add(duration)
	published := 0
	for time.Now().Before(deadline) && !stopped(stop) {
		outs, err := e.queueCT.Test("dequeue")
		if err != nil {
			if !stopped(stop) {
				recordErr(err)
			}
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
		if _, err := e.stageCT.Test("put", outs...); err != nil {
			recordErr(err)
			break
		}
		if e.staging.Depth() < 2 {
			continue // fill the pipeline before the first update
		}
		staged, err := e.stageCT.Test("get")
		if err != nil {
			recordErr(err)
			break
		}
		e.learnerMu.Lock()
		_, err = e.learner.UpdateRollout(
			staged[0], staged[1], staged[2], staged[3], staged[4], staged[5])
		e.learnerMu.Unlock()
		if err != nil {
			recordErr(err)
			break
		}
		e.updates++
		if ps := e.cfg.PublishTo; ps != nil && e.updates%e.cfg.PublishEvery == 0 {
			e.learnerMu.Lock()
			weights := e.learner.GetWeights()
			e.learnerMu.Unlock()
			if _, err := ps.Push(weights); err != nil {
				recordErr(fmt.Errorf("distexec: publish at update %d: %w", e.updates, err))
			} else {
				published++
			}
		}
	}
	halt()
	e.queue.Close()
	wg.Wait()

	elapsed := time.Since(start)
	var degraded time.Duration
	if fd := e.firstDeath.Load(); fd != 0 {
		degraded = time.Duration(time.Now().UnixNano() - fd)
	}
	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	return &IMPALAResult{
		Frames:    atomic.LoadInt64(&e.frames),
		Elapsed:   elapsed,
		FPS:       float64(atomic.LoadInt64(&e.frames)) / elapsed.Seconds(),
		Updates:   e.updates,
		Rollouts:  atomic.LoadInt64(&e.rollouts),
		Restarts:  int(atomic.LoadInt64(&e.restarts)),
		Degraded:  degraded,
		Published: published,
	}, err
}
