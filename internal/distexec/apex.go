// Package distexec implements distributed executors on top of the raysim
// actor engine: the Ape-X executor (distributed prioritized experience
// replay — workers, replay shards, one learner; Horgan et al. 2018) and the
// IMPALA executor (queue-fed actor-learner; Espeholt et al. 2018). They
// realize the paper's separation of concerns: agents define local graphs,
// executors own all distributed coordination (§4.1) — including fault
// tolerance. Workers, shards and actors restart through one
// raysim.Supervisor (capped full-jitter backoff within a budget), every
// run stops on one context whose first cause is the run's error, learner
// calls carry deadlines so a hung shard stalls one iteration rather than
// the run, and a run degrades until no worker is left.
package distexec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/component"
	"rlgraph/internal/components/memories"
	"rlgraph/internal/exec"
	"rlgraph/internal/execution"
	"rlgraph/internal/raysim"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// SampleWorker abstracts the two worker implementations (RLgraph-style
// batched vs RLlib-style incremental) so the executor runs either.
type SampleWorker interface {
	// Sample collects one task of transitions.
	Sample(numSteps int) (*execution.Batch, error)
	// SetWeights installs learner weights.
	SetWeights(map[string]*tensor.Tensor) error
	// MeanReward reports recent episode returns.
	MeanReward(n int) (float64, bool)
}

// Fixed Ape-X settings: the prioritized-replay exponents of every replay
// shard, how often one shard may be restarted (a restarted shard loses its
// contents), and how many learner batches a shard must hold before the
// learner samples it.
const (
	replayAlpha, replayBeta = 0.6, 0.4
	maxShardRestarts        = 1
	minReplayBatches        = 2
)

// ApexConfig parameterizes the Ape-X run.
type ApexConfig struct {
	// NumWorkers is the number of sample-collection actors.
	NumWorkers int
	// TaskSize is the number of act/step iterations per sample task.
	TaskSize int
	// NumReplayShards is the number of replay-memory actors.
	NumReplayShards int
	// ReplayCapacity is the per-shard record capacity.
	ReplayCapacity int
	// BatchSize is the learner batch size.
	BatchSize int
	// SyncWeightsEvery broadcasts learner weights every N updates.
	SyncWeightsEvery int
	// MaxWorkerRestarts caps supervised restarts per worker (default 3,
	// negative = never restart).
	MaxWorkerRestarts int
	// RestartBackoff is the initial window of the workers' full-jitter
	// restart backoff (raysim.Policy), doubling to 2s (default 50ms).
	RestartBackoff time.Duration
	// CallTimeout bounds every executor-issued remote call (default 30s,
	// negative = no deadline). A hung actor costs one timed-out call, not
	// the run.
	CallTimeout time.Duration
	// PublishTo, when non-nil, pushes a learner weight snapshot to this
	// parameter server every PublishEvery updates — the live
	// training→serving weight-sync loop (a fleet.Publisher on the other
	// side pulls each version and hot-swaps replicas).
	PublishTo *ParameterServer
	// PublishEvery is the update interval between publishes (defaults to
	// SyncWeightsEvery; only meaningful with PublishTo).
	PublishEvery int
	// Cluster tunes the actor engine's cost model and fault injection.
	Cluster raysim.Config
}

func (c *ApexConfig) withDefaults() ApexConfig {
	out := *c
	if out.NumWorkers == 0 {
		out.NumWorkers = 4
	}
	if out.TaskSize == 0 {
		out.TaskSize = 50
	}
	if out.NumReplayShards == 0 {
		out.NumReplayShards = 2
	}
	if out.ReplayCapacity == 0 {
		out.ReplayCapacity = 50000
	}
	if out.BatchSize == 0 {
		out.BatchSize = 64
	}
	if out.SyncWeightsEvery == 0 {
		out.SyncWeightsEvery = 25
	}
	if out.PublishEvery == 0 {
		out.PublishEvery = out.SyncWeightsEvery
	}
	switch {
	case out.MaxWorkerRestarts == 0:
		out.MaxWorkerRestarts = 3
	case out.MaxWorkerRestarts < 0:
		out.MaxWorkerRestarts = 0
	}
	if out.RestartBackoff == 0 {
		out.RestartBackoff = 50 * time.Millisecond
	}
	switch {
	case out.CallTimeout == 0:
		out.CallTimeout = 30 * time.Second
	case out.CallTimeout < 0:
		out.CallTimeout = 0
	}
	return out
}

// RewardPoint is one timeline sample for learning curves.
type RewardPoint struct {
	// Seconds since the run started.
	Seconds float64
	// MeanReward over recent finished episodes across workers.
	MeanReward float64
}

// ApexResult aggregates a run's metrics.
type ApexResult struct {
	// Frames is total environment frames collected (including frame-skip).
	Frames int64
	// Elapsed is the wall-clock run duration.
	Elapsed time.Duration
	// FPS is Frames/Elapsed.
	FPS float64
	// Updates is the number of learner updates applied.
	Updates int
	// ActorCalls counts remote calls issued on the engine.
	ActorCalls int64
	// Restarts counts supervised actor re-spawns (workers and shards).
	Restarts int
	// FailedCalls counts remote calls that returned errors (crashes,
	// injected faults, dead mailboxes).
	FailedCalls int64
	// TimedOutCalls counts remote calls abandoned at their deadline.
	TimedOutCalls int64
	// Degraded is how long the run continued after permanently losing a
	// worker (zero when every worker survived or recovered).
	Degraded time.Duration
	// Timeline holds reward-vs-time samples (learning-curve runs).
	Timeline []RewardPoint
	// SolvedAt is the first timeline point reaching the target (nil if
	// never reached).
	SolvedAt *RewardPoint
	// Published counts weight snapshots pushed to PublishTo.
	Published int
}

// replayShard is the remote prioritized memory, built as a standalone
// component graph on the learner's backend.
type replayShard struct {
	ex   exec.Executor
	mem  *memories.PrioritizedReplay
	size int64
}

// buildStandalone builds a component that runs on its own, outside any
// agent — a replay shard, a queue, a staging area — on the named backend.
func buildStandalone(backendName string, c *component.Component, in exec.InputSpaces) (exec.Executor, error) {
	ex, err := exec.New(backendName, c)
	if err != nil {
		return nil, err
	}
	if _, err := ex.Build(in); err != nil {
		return nil, err
	}
	return ex, nil
}

func newReplayShard(backendName, name string, capacity int, alpha, beta float64, stateSpace spaces.Space, seed int64) (*replayShard, error) {
	mem := memories.NewPrioritizedReplay(name, capacity, 5, alpha, beta, seed)
	sB := stateSpace.WithBatchRank()
	fB := spaces.NewFloatBox().WithBatchRank()
	ex, err := buildStandalone(backendName, mem.Component, exec.InputSpaces{
		"insert":                 {sB, fB, fB, sB, fB},
		"insert_with_priorities": {sB, fB, fB, sB, fB, fB},
		"sample":                 {spaces.NewFloatBox()},
		"update":                 {fB, fB},
	})
	if err != nil {
		return nil, err
	}
	return &replayShard{ex: ex, mem: mem}, nil
}

func (sh *replayShard) behavior() raysim.Behavior {
	return raysim.Behavior{
		"insert": func(args []interface{}) (interface{}, error) {
			b := args[0].(*execution.Batch)
			if b.Len() == 0 {
				return 0, nil
			}
			var err error
			if b.Prio != nil {
				_, err = sh.ex.Execute("insert_with_priorities", b.S, b.A, b.R, b.NS, b.T, b.Prio)
			} else {
				_, err = sh.ex.Execute("insert", b.S, b.A, b.R, b.NS, b.T)
			}
			if err != nil {
				return nil, err
			}
			atomic.StoreInt64(&sh.size, int64(sh.mem.Size()))
			return sh.mem.Size(), nil
		},
		"sample": func(args []interface{}) (interface{}, error) {
			n := args[0].(int)
			outs, err := sh.ex.Execute("sample", tensor.Scalar(float64(n)))
			if err != nil {
				return nil, err
			}
			return outs, nil
		},
		"update_priorities": func(args []interface{}) (interface{}, error) {
			_, err := sh.ex.Execute("update", args[0].(*tensor.Tensor), args[1].(*tensor.Tensor))
			return nil, err
		},
	}
}

func workerBehavior(w SampleWorker) raysim.Behavior {
	return raysim.Behavior{
		"sample": func(args []interface{}) (interface{}, error) {
			return w.Sample(args[0].(int))
		},
		"set_weights": func(args []interface{}) (interface{}, error) {
			return nil, w.SetWeights(args[0].(map[string]*tensor.Tensor))
		},
		"mean_reward": func(args []interface{}) (interface{}, error) {
			m, ok := w.MeanReward(args[0].(int))
			if !ok {
				return nil, fmt.Errorf("no episodes finished")
			}
			return m, nil
		},
	}
}

// ApexExecutor coordinates workers, replay shards and the learner, and
// supervises both actor pools.
type ApexExecutor struct {
	cfg     ApexConfig
	cluster *raysim.Cluster
	learner *agents.DQN
	// learnerMu serializes learner weight reads (restart re-sync, weight
	// broadcast) against updates.
	learnerMu sync.Mutex

	workerMu sync.RWMutex
	workers  []*raysim.ActorRef

	shardOpMu    sync.Mutex // serializes shard restart decisions
	shardMu      sync.RWMutex
	shards       []*raysim.ActorRef
	shardSt      []*replayShard
	shardDead    []bool
	shardMembers []*raysim.Member

	workerSup, shardSup *raysim.Supervisor

	frames  int64
	updates int

	failedCalls   int64
	timedOutCalls int64
}

// NewApex wires the executor: workerFactory builds each worker's local
// agent+envs (called once per worker, and once per supervised restart),
// learner is the central learner agent (already built; the replay shards
// are built on its backend), stateSpace shapes the replay shards.
func NewApex(cfg ApexConfig, learner *agents.DQN, stateSpace spaces.Space,
	workerFactory func(i int) (SampleWorker, error)) (*ApexExecutor, error) {
	cfg = cfg.withDefaults()
	e := &ApexExecutor{cfg: cfg, cluster: raysim.NewCluster(cfg.Cluster), learner: learner,
		workerSup: raysim.NewSupervisor(raysim.Policy{Budget: cfg.MaxWorkerRestarts,
			Backoff: cfg.RestartBackoff, Cap: 2 * time.Second}, cfg.NumWorkers),
		// A shard restart runs on the learner goroutine: no backoff sleep.
		shardSup: raysim.NewSupervisor(raysim.Policy{Budget: maxShardRestarts}, cfg.NumReplayShards)}

	for i := 0; i < cfg.NumReplayShards; i++ {
		e.shardSt = append(e.shardSt, nil)
		e.shardDead = append(e.shardDead, false)
		e.shardMembers = append(e.shardMembers, e.shardSup.Member(rand.New(rand.NewSource(int64(i)))))
		factory := func() (raysim.Behavior, error) {
			shard, err := newReplayShard(learner.Executor().BackendName(), shardName(i), cfg.ReplayCapacity,
				replayAlpha, replayBeta, stateSpace, int64(1000+i))
			if err != nil {
				return nil, err
			}
			e.shardMu.Lock()
			e.shardSt[i] = shard
			e.shardMu.Unlock()
			return shard.behavior(), nil
		}
		a, err := e.cluster.NewRestartableActor(shardName(i), factory)
		if err != nil {
			return nil, err
		}
		e.shards = append(e.shards, a)
	}

	for i := 0; i < cfg.NumWorkers; i++ {
		factory := func() (raysim.Behavior, error) {
			w, err := workerFactory(i)
			if err != nil {
				return nil, err
			}
			return workerBehavior(w), nil
		}
		a, err := e.cluster.NewRestartableActor(workerName(i), factory)
		if err != nil {
			return nil, err
		}
		e.workers = append(e.workers, a)
	}
	return e, nil
}

func shardName(i int) string  { return fmt.Sprintf("replay-%d", i) }
func workerName(i int) string { return fmt.Sprintf("worker-%d", i) }

// Cluster exposes the actor engine (for call counts in benches).
func (e *ApexExecutor) Cluster() *raysim.Cluster { return e.cluster }

// get resolves a future under the executor's call deadline.
func (e *ApexExecutor) get(f *raysim.Future) (interface{}, error) {
	return f.GetTimeout(e.cfg.CallTimeout)
}

// noteFailure classifies a failed remote call into the run metrics.
func (e *ApexExecutor) noteFailure(err error) {
	if raysim.IsTimeout(err) {
		atomic.AddInt64(&e.timedOutCalls, 1)
	} else {
		atomic.AddInt64(&e.failedCalls, 1)
	}
}

// liveShard returns the first non-dead shard at or after rotation index
// start, or ok=false when every shard is gone.
func (e *ApexExecutor) liveShard(start int) (ref *raysim.ActorRef, st *replayShard, idx int, ok bool) {
	e.shardMu.RLock()
	defer e.shardMu.RUnlock()
	n := len(e.shards)
	for k := 0; k < n; k++ {
		i := ((start+k)%n + n) % n
		if !e.shardDead[i] {
			return e.shards[i], e.shardSt[i], i, true
		}
	}
	return nil, nil, 0, false
}

// restartShard replaces a failed shard actor (losing its contents) through
// the shard supervisor; once its budget is spent the shard is marked dead
// and dropped from rotation.
func (e *ApexExecutor) restartShard(ctx context.Context, i int, old *raysim.ActorRef) {
	e.shardOpMu.Lock()
	defer e.shardOpMu.Unlock()
	e.shardMu.RLock()
	cur, dead := e.shards[i], e.shardDead[i]
	e.shardMu.RUnlock()
	if dead || cur != old {
		return // dead, or a concurrent restart already replaced it
	}
	if !e.shardMembers[i].Restart(ctx, func() error {
		nw, err := e.cluster.Restart(shardName(i))
		if err != nil {
			atomic.AddInt64(&e.failedCalls, 1)
			return err
		}
		e.shardMu.Lock()
		e.shards[i] = nw
		e.shardMu.Unlock()
		return nil
	}) {
		e.shardMu.Lock()
		e.shardDead[i] = true
		e.shardMu.Unlock()
	}
}

// weights reads the learner's weights between updates.
func (e *ApexExecutor) weights() map[string]*tensor.Tensor {
	e.learnerMu.Lock()
	defer e.learnerMu.Unlock()
	return e.learner.GetWeights()
}

// runMember is one supervised pool member's loop: it runs step until step
// fails, restarts the member through m and goes on. Once m's budget is spent
// it records the loss, stopping the run with the root cause when no member
// of the pool is left. It returns once ctx is done or the member is lost.
func runMember(ctx context.Context, stop context.CancelCauseFunc, sup *raysim.Supervisor,
	m *raysim.Member, name string, step, respawn func() error) {
	for !stopping(ctx) {
		err := step()
		if err == nil || stopping(ctx) || m.Restart(ctx, respawn) {
			continue
		}
		if !stopping(ctx) && sup.Lost() == 0 {
			stop(fmt.Errorf("distexec: %s lost after %d restarts, none left: %w", name, m.Attempts(), err))
		}
		return
	}
}

// stopping polls ctx without blocking: one atomic load, no lock.
func stopping(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// runErr is the first cause that stopped a run; nil when the run stopped by
// itself (deadline or target reward).
func runErr(ctx context.Context) error {
	if err := context.Cause(ctx); err != context.Canceled {
		return err
	}
	return nil
}

var errShardsDead = errors.New("distexec: all replay shards dead")

// harvest reaps resolved fire-and-forget futures (priority updates, weight
// broadcasts), counting failures, and returns the still-pending tail.
func (e *ApexExecutor) harvest(pending []*raysim.Future) []*raysim.Future {
	out := pending[:0]
	for _, f := range pending {
		if _, err, done := f.TryGet(); done {
			if err != nil {
				e.noteFailure(err)
			}
		} else {
			out = append(out, f)
		}
	}
	// Futures stuck on a hung actor resolve only via deadlines we never
	// poll; bound the tail so they cannot accumulate.
	if len(out) > 4096 {
		out = out[len(out)-4096:]
	}
	return out
}

// RunOptions controls a run's stopping condition and measurement cadence.
type RunOptions struct {
	// Duration stops the run after this wall time.
	Duration time.Duration
	// TargetReward, when non-zero, also stops once the mean worker reward
	// reaches it.
	TargetReward float64
	// SampleTimelineEvery controls learning-curve sampling (0 = off).
	SampleTimelineEvery time.Duration
}

// Run drives the Ape-X loop until the stopping condition and reports
// aggregate metrics. Worker crashes, hangs and injected faults are handled
// by the supervisor; the run fails only when no worker survives, the
// learner itself errors, or every replay shard dies.
func (e *ApexExecutor) Run(opt RunOptions) (*ApexResult, error) {
	start := time.Now()
	deadline := start.Add(opt.Duration)
	ctx, stop := context.WithCancelCause(context.Background())

	// Sample feeders: one supervised pipeline per worker actor, inserting
	// into live shards round-robin.
	var wg sync.WaitGroup
	for wi := range e.workers {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			e.workerMu.RLock()
			w := e.workers[wi]
			e.workerMu.RUnlock()
			shard := wi
			step := func() error {
				v, err := e.get(w.Call("sample", e.cfg.TaskSize))
				if err != nil {
					if !stopping(ctx) {
						e.noteFailure(err)
					}
					return err
				}
				b := v.(*execution.Batch)
				atomic.AddInt64(&e.frames, int64(b.Frames))
				ref, _, idx, ok := e.liveShard(shard)
				if !ok {
					stop(errShardsDead)
					return nil
				}
				if _, err := e.get(ref.Call("insert", b)); err != nil && !stopping(ctx) {
					e.noteFailure(err)
					e.restartShard(ctx, idx, ref) // batch is dropped
				}
				shard++
				return nil
			}
			// A fresh incarnation gets the learner's weights before it samples.
			respawn := func() error {
				nw, err := e.cluster.Restart(workerName(wi))
				if err != nil {
					atomic.AddInt64(&e.failedCalls, 1)
					return err
				}
				e.workerMu.Lock()
				e.workers[wi] = nw
				e.workerMu.Unlock()
				w = nw
				if _, err := e.get(nw.Call("set_weights", e.weights())); err != nil {
					e.noteFailure(err)
					return err
				}
				return nil
			}
			m := e.workerSup.Member(rand.New(rand.NewSource(int64(wi))))
			runMember(ctx, stop, e.workerSup, m, workerName(wi), step, respawn)
		}(wi)
	}

	// Timeline sampler; timeline and solved are read only after wg.Wait.
	var timeline []RewardPoint
	var solved *RewardPoint
	if opt.SampleTimelineEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(opt.SampleTimelineEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					e.workerMu.RLock()
					workers := append([]*raysim.ActorRef(nil), e.workers...)
					e.workerMu.RUnlock()
					sum, n := 0.0, 0
					for _, w := range workers {
						if v, err := e.get(w.Call("mean_reward", 20)); err == nil {
							sum += v.(float64)
							n++
						}
					}
					if n == 0 {
						continue
					}
					pt := RewardPoint{Seconds: time.Since(start).Seconds(), MeanReward: sum / float64(n)}
					timeline = append(timeline, pt)
					if solved == nil && opt.TargetReward != 0 && pt.MeanReward >= opt.TargetReward {
						solved = &pt
						stop(nil)
					}
				}
			}
		}()
	}

	// Learner loop (this goroutine): pull batches from live shards
	// round-robin under a call deadline, update, push priorities, broadcast
	// weights. Priority pushes and weight broadcasts stay asynchronous;
	// their outcomes are harvested on later iterations.
	shard := 0
	published := 0
	var pending []*raysim.Future
	for time.Now().Before(deadline) && !stopping(ctx) {
		pending = e.harvest(pending)
		ref, sh, idx, ok := e.liveShard(shard)
		if !ok {
			stop(errShardsDead)
			break
		}
		if int(atomic.LoadInt64(&sh.size)) < minReplayBatches*e.cfg.BatchSize {
			shard++
			time.Sleep(time.Millisecond)
			continue
		}
		v, err := e.get(ref.Call("sample", e.cfg.BatchSize))
		if err != nil {
			e.noteFailure(err)
			e.restartShard(ctx, idx, ref)
			shard++
			continue
		}
		outs := v.([]*tensor.Tensor)
		s, a, r, ns, t, ridx, w := outs[0], outs[1], outs[2], outs[3], outs[4], outs[5], outs[6]
		e.learnerMu.Lock()
		_, td, err := e.learner.UpdateExternal(s, a, r, ns, t, w)
		e.learnerMu.Unlock()
		if err != nil {
			stop(err)
			break
		}
		pending = append(pending, ref.Call("update_priorities", ridx, td))
		e.updates++
		shard++
		if e.updates%e.cfg.SyncWeightsEvery == 0 {
			weights := e.weights()
			e.workerMu.RLock()
			for _, wk := range e.workers {
				pending = append(pending, wk.Call("set_weights", weights))
			}
			e.workerMu.RUnlock()
		}
		if ps := e.cfg.PublishTo; ps != nil && e.updates%e.cfg.PublishEvery == 0 {
			if _, err := ps.Push(e.weights()); err != nil {
				stop(fmt.Errorf("distexec: publish at update %d: %w", e.updates, err))
			} else {
				published++
			}
		}
	}
	stop(nil)
	wg.Wait()
	e.cluster.StopAll()

	elapsed := time.Since(start)
	return &ApexResult{
		Frames:        atomic.LoadInt64(&e.frames),
		Elapsed:       elapsed,
		FPS:           float64(atomic.LoadInt64(&e.frames)) / elapsed.Seconds(),
		Updates:       e.updates,
		ActorCalls:    atomic.LoadInt64(&e.cluster.Calls),
		Restarts:      int(e.workerSup.Restarts() + e.shardSup.Restarts()),
		FailedCalls:   atomic.LoadInt64(&e.failedCalls),
		TimedOutCalls: atomic.LoadInt64(&e.timedOutCalls),
		Degraded:      e.workerSup.Degraded(),
		Timeline:      timeline,
		SolvedAt:      solved,
		Published:     published,
	}, runErr(ctx)
}
