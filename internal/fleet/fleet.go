// Package fleet scales the serving layer from one micro-batching Service to
// a supervised multi-replica fleet — the "millions of users" rung of the
// executor story. A Router fans Act(obs, deadline) calls across N replicas,
// each of which owns its own executor, arena, and serve.Service batcher:
//
//   - Routing is least-loaded with a consistent-hash fallback: the healthy
//     replica with the fewest in-flight requests wins, and ties are broken
//     by a hash ring over the observation so equal-load routing stays
//     deterministic and cache-friendly.
//   - Failures are retried on a different healthy replica (bounded retries),
//     and an optional hedged second request is issued when the deadline
//     budget allows — first success wins, the loser is accounted as
//     retried-away.
//   - Replicas run under raysim-style supervision: periodic health probes, a
//     circuit breaker that ejects a replica after consecutive failures and
//     re-admits it after a successful probe, and capped-backoff restarts
//     with full jitter that rebuild a crashed replica from its factory and
//     re-install the fleet's current weight snapshot.
//   - Weights hot-swap between batches through serve.Barrier: a rolling
//     SwapAll pauses one replica at a time (≥ N−1 keep serving), responses
//     carry the weight version that produced them, and the Publisher
//     (publisher.go) drives swaps from a distexec.ParameterServer with a
//     regression guard that rolls back to the previous snapshot.
//
// Accounting is exactly-once fleet-wide: every routed attempt lands in
// exactly one of Completed, RetriedAway, Misses, or Failed, and every
// request in exactly one of Completed, Misses, Failed, or Unroutable — the
// invariants the chaos tests assert under -race while replicas are killed
// and weights swapped mid-load.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rlgraph/internal/serve"
	"rlgraph/internal/tensor"
)

// Sentinel errors of the fleet layer.
var (
	// ErrClosed marks requests rejected because the router is shut down.
	ErrClosed = errors.New("fleet: router closed")
	// ErrNoReplicas marks requests that could not be routed: no healthy
	// replica was available (all ejected, down, or already tried).
	ErrNoReplicas = errors.New("fleet: no healthy replica available")
	// errReplicaDown marks attempts against a replica whose service is
	// being rebuilt; it is retryable.
	errReplicaDown = errors.New("fleet: replica down")
)

// BuildFunc constructs one replica's serving stack: a Runner over a freshly
// built executor (each replica owns its executor and arena — replicas never
// share mutable state) plus the weight-installation hook hot-swaps go
// through. It is called once per replica at construction and again on every
// supervised restart.
type BuildFunc func(i int) (run serve.Runner, setWeights func(map[string]*tensor.Tensor) error, err error)

// Config tunes the router, supervision, and hedging policy.
type Config struct {
	// Replicas is the fleet size N (default 2).
	Replicas int
	// Build constructs each replica's runner and weight sink.
	Build BuildFunc
	// Serve is the per-replica micro-batcher configuration (element space,
	// batch size, flush latency, queue depth). Version is owned by the
	// fleet and must be left unset.
	Serve serve.Config
	// MaxRetries bounds how many times a failed request is re-routed to a
	// different replica (default 2, negative = never retry).
	MaxRetries int
	// Hedge enables one hedged request per call: when the first attempt has
	// not resolved within HedgeAfter and the deadline budget allows, a
	// second attempt is issued on a different replica and the first success
	// wins.
	Hedge bool
	// HedgeAfter is the hedging delay; 0 derives it from the fleet's
	// rolling p99 (2x p99, floored at 200µs).
	HedgeAfter time.Duration
	// EjectAfter is the circuit-breaker threshold: this many consecutive
	// failures eject a replica from rotation until a probe succeeds
	// (default 3).
	EjectAfter int
	// ProbeEvery is the health-probe period per replica (default 25ms).
	ProbeEvery time.Duration
	// ProbeTimeout bounds each probe (default 4*ProbeEvery).
	ProbeTimeout time.Duration
	// ProbeObs is the canary observation probes send; defaults to a zero
	// tensor of the serve element shape.
	ProbeObs *tensor.Tensor
	// RestartBackoff is the initial supervised-restart window; it doubles
	// per consecutive failed rebuild up to a 1s cap, and the actual sleep
	// is drawn with full jitter (default 10ms).
	RestartBackoff time.Duration
	// MaxRestarts caps supervised rebuilds per replica; past it the replica
	// is dead for good (default 16, negative = never restart).
	MaxRestarts int
	// Seed seeds the per-replica supervision RNGs (jitter).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = 2
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 25 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 4 * c.ProbeEvery
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 10 * time.Millisecond
	}
	switch {
	case c.MaxRestarts == 0:
		c.MaxRestarts = 16
	case c.MaxRestarts < 0:
		c.MaxRestarts = 0
	}
	if c.ProbeObs == nil && c.Serve.ElemShape == nil && c.Serve.Elem != nil {
		c.Serve.ElemShape = c.Serve.Elem.Shape()
	}
	if c.ProbeObs == nil && c.Serve.ElemShape != nil {
		c.ProbeObs = tensor.New(c.Serve.ElemShape...)
	}
	return c
}

// Router fans requests across the replica fleet.
type Router struct {
	cfg      Config
	replicas []*Replica
	ring     *hashRing
	m        counters

	// snapMu guards the fleet's current weight snapshot — what a rebuilt
	// replica is initialized with so it rejoins bit-identical to its peers.
	snapMu sync.Mutex
	snapW  map[string]*tensor.Tensor
	snapV  int64

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// New builds the fleet: N replicas from cfg.Build, each with its own
// serve.Service, plus one supervisor goroutine per replica. Stop it with
// Shutdown.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if cfg.Build == nil {
		return nil, errors.New("fleet: Config.Build is required")
	}
	if cfg.Serve.Version != nil {
		return nil, errors.New("fleet: Config.Serve.Version is owned by the fleet")
	}
	if cfg.Replicas > 64 {
		return nil, fmt.Errorf("fleet: %d replicas, at most 64 fit the routing bitmask", cfg.Replicas)
	}
	rt := &Router{
		cfg:  cfg,
		ring: newHashRing(cfg.Replicas, 16),
		stop: make(chan struct{}),
	}
	for i := 0; i < cfg.Replicas; i++ {
		r := newReplica(i)
		if err := rt.buildService(r); err != nil {
			// Tear down the replicas already started.
			for _, prev := range rt.replicas {
				if svc := prev.svc.Load(); svc != nil {
					_ = svc.Close()
				}
			}
			return nil, fmt.Errorf("fleet: building replica %d: %w", i, err)
		}
		rt.replicas = append(rt.replicas, r)
	}
	for _, r := range rt.replicas {
		rt.wg.Add(1)
		go rt.supervise(r)
	}
	return rt, nil
}

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	out     *tensor.Tensor
	version int64
	err     error
	lat     time.Duration
}

// replicaSet is a bitmask over replica indices (New caps the fleet at 64),
// so routing a request tracks tried and tied replicas without allocating.
type replicaSet uint64

func (s replicaSet) has(i int) bool { return s>>uint(i)&1 != 0 }

// Act routes one observation, retrying on a different replica when an
// attempt fails. A zero deadline means wait indefinitely.
func (rt *Router) Act(obs *tensor.Tensor, deadline time.Time) (*tensor.Tensor, error) {
	out, _, err := rt.ActVersion(obs, deadline)
	return out, err
}

// ActVersion is Act plus the weight-version stamp of the snapshot that
// served the request. Unless a hedge can race the first attempt, attempts
// are strictly sequential and run on the caller's goroutine.
func (rt *Router) ActVersion(obs *tensor.Tensor, deadline time.Time) (*tensor.Tensor, int64, error) {
	if rt.closed.Load() {
		return nil, 0, ErrClosed
	}
	rt.m.requests.Add(1)
	r := rt.pick(obs, 0)
	if r == nil {
		rt.m.unroutable.Add(1)
		return nil, 0, ErrNoReplicas
	}
	if rt.cfg.Hedge && rt.hedgeBudget(deadline) {
		return rt.actHedged(r, obs, deadline)
	}
	var tried replicaSet
	for retries := 0; ; retries++ {
		tried |= 1 << r.idx
		rt.begin(r)
		res := rt.attempt(r, obs, deadline)
		if res.err == nil || errors.Is(res.err, serve.ErrDeadline) {
			return rt.resolve(res)
		}
		rt.recordVersion(res.version, true, res.lat)
		r = nil
		if retryable(res.err) && retries < rt.cfg.MaxRetries && !pastDeadline(deadline) {
			r = rt.pick(obs, tried)
		}
		if r == nil {
			rt.m.failed.Add(1)
			return nil, 0, res.err
		}
		rt.m.retriedAway.Add(1)
		rt.m.retries.Add(1)
	}
}

// begin counts an attempt against r as routed and in flight — on the
// caller's goroutine, so a concurrent pick already sees the load.
func (rt *Router) begin(r *Replica) {
	rt.m.routed.Add(1)
	r.inflight.Add(1)
}

// attempt runs one begun attempt to its outcome and feeds the breaker.
func (rt *Router) attempt(r *Replica, obs *tensor.Tensor, deadline time.Time) attemptResult {
	t0 := time.Now()
	out, v, err := r.call(obs, deadline)
	r.inflight.Add(-1)
	rt.noteOutcome(r, err)
	return attemptResult{out: out, version: v, err: err, lat: time.Since(t0)}
}

// resolve accounts the attempt that ends its request without a retry: a
// success, or a deadline miss (the request is out of time; retrying cannot
// help).
func (rt *Router) resolve(res attemptResult) (*tensor.Tensor, int64, error) {
	rt.recordVersion(res.version, res.err != nil, res.lat)
	if res.err != nil {
		rt.m.misses.Add(1)
		return nil, 0, serve.ErrDeadline
	}
	rt.m.completed.Add(1)
	rt.m.lat.record(res.lat)
	return res.out, res.version, nil
}

// actHedged is the racing form of the attempt loop: first already picked,
// each attempt on its own goroutine, and one hedged second attempt on a
// different replica when the first has not resolved within hedgeAfter.
func (rt *Router) actHedged(first *Replica, obs *tensor.Tensor, deadline time.Time) (*tensor.Tensor, int64, error) {
	results := make(chan attemptResult, rt.cfg.MaxRetries+2)
	var tried replicaSet
	launch := func(r *Replica) {
		tried |= 1 << r.idx
		rt.begin(r)
		go func() { results <- rt.attempt(r, obs, deadline) }()
	}
	launch(first)
	inFlight := 1

	t := time.NewTimer(rt.hedgeAfter())
	defer t.Stop()
	hedgeTimer := t.C

	retries := 0
	heldFailures := 0 // failed attempts whose classification waits on the outcome
	var lastErr error
	for inFlight > 0 {
		select {
		case res := <-results:
			inFlight--
			if res.err == nil || errors.Is(res.err, serve.ErrDeadline) {
				rt.m.retriedAway.Add(int64(heldFailures))
				rt.drainAbandoned(results, inFlight)
				return rt.resolve(res)
			}
			rt.recordVersion(res.version, true, res.lat)
			lastErr = res.err
			if retryable(res.err) && retries < rt.cfg.MaxRetries && !pastDeadline(deadline) {
				if next := rt.pick(obs, tried); next != nil {
					retries++
					rt.m.retriedAway.Add(1)
					rt.m.retries.Add(1)
					launch(next)
					inFlight++
					continue
				}
			}
			// No retry for this failure. If a hedge is still in flight it
			// may yet succeed; hold the classification until then.
			if inFlight > 0 {
				heldFailures++
				continue
			}
			rt.m.failed.Add(1)
			rt.m.retriedAway.Add(int64(heldFailures))
			return nil, 0, lastErr

		case <-hedgeTimer:
			hedgeTimer = nil
			if next := rt.pick(obs, tried); next != nil {
				rt.m.hedges.Add(1)
				launch(next)
				inFlight++
			}
		}
	}
	// Unreachable: the loop always returns once inFlight drains.
	rt.m.failed.Add(1)
	return nil, 0, lastErr
}

// drainAbandoned accounts attempts still in flight after their request
// resolved (hedge losers, attempts racing a deadline): each lands in
// RetriedAway once it returns, so Routed == Completed + RetriedAway +
// Misses + Failed holds at quiescence.
func (rt *Router) drainAbandoned(results chan attemptResult, inFlight int) {
	if inFlight == 0 {
		return
	}
	go func() {
		for i := 0; i < inFlight; i++ {
			res := <-results
			rt.m.retriedAway.Add(1)
			rt.recordVersion(res.version, res.err != nil, res.lat)
		}
	}()
}

// retryable reports whether a different replica could plausibly serve the
// request: replica death, shed queues, and runner errors are retryable; a
// bad observation is the caller's fault everywhere.
func retryable(err error) bool {
	return !errors.Is(err, serve.ErrBadObservation)
}

func pastDeadline(deadline time.Time) bool {
	return !deadline.IsZero() && time.Now().After(deadline)
}

// hedgeBudget reports whether the deadline leaves room for a hedged second
// attempt (at least twice the hedge delay remaining).
func (rt *Router) hedgeBudget(deadline time.Time) bool {
	if deadline.IsZero() {
		return true
	}
	return time.Until(deadline) > 2*rt.hedgeAfter()
}

// hedgeAfter resolves the hedging delay: configured, or 2x the fleet's
// rolling p99 with a 200µs floor (hedging below scheduler noise just
// doubles load).
func (rt *Router) hedgeAfter() time.Duration {
	if rt.cfg.HedgeAfter > 0 {
		return rt.cfg.HedgeAfter
	}
	d := 2 * rt.m.lat.quantile(0.99)
	if d < 200*time.Microsecond {
		d = 200 * time.Microsecond
	}
	return d
}

// pick selects the least-loaded healthy replica not yet tried, breaking
// load ties with the consistent-hash ring over the observation.
func (rt *Router) pick(obs *tensor.Tensor, tried replicaSet) *Replica {
	var best *Replica
	var tied replicaSet // every replica at minLoad, best included
	minLoad := int64(1<<62 - 1)
	for _, r := range rt.replicas {
		if tried.has(r.idx) || r.state.Load() != stateHealthy {
			continue
		}
		switch l := r.inflight.Load(); {
		case l < minLoad:
			minLoad, best, tied = l, r, 1<<r.idx
		case l == minLoad:
			tied |= 1 << r.idx
		}
	}
	if bits.OnesCount64(uint64(tied)) > 1 {
		if idx, ok := rt.ring.lookup(hashObs(obs), tied); ok {
			return rt.replicas[idx]
		}
	}
	return best
}

// noteOutcome feeds the circuit breaker: successes reset the consecutive
// failure count, ErrClosed flips the replica to down (its service is gone),
// and other failures accumulate toward ejection. Deadline misses are
// neutral — they are a property of the request's budget, not proof the
// replica is broken, and ejecting on them would cascade under overload.
func (rt *Router) noteOutcome(r *Replica, err error) {
	switch {
	case err == nil:
		r.consecFails.Store(0)
	case errors.Is(err, serve.ErrClosed), errors.Is(err, errReplicaDown):
		rt.transitionDown(r)
	case errors.Is(err, serve.ErrDeadline):
	default:
		if r.consecFails.Add(1) >= int64(rt.cfg.EjectAfter) {
			if r.state.CompareAndSwap(stateHealthy, stateEjected) {
				rt.m.ejections.Add(1)
			}
		}
	}
}

// transitionDown marks a replica's service as gone and wakes its
// supervisor for a rebuild.
func (rt *Router) transitionDown(r *Replica) {
	for {
		s := r.state.Load()
		if s == stateDown || s == stateDead {
			return
		}
		if r.state.CompareAndSwap(s, stateDown) {
			rt.m.downs.Add(1)
			select {
			case r.wake <- struct{}{}:
			default:
			}
			return
		}
	}
}

// HealthyCount returns how many replicas are currently in the healthy
// (routable) state — the availability signal live-loop benches sample while
// rolling swaps and rebuilds are in flight.
func (rt *Router) HealthyCount() int {
	n := 0
	for _, r := range rt.replicas {
		if r.state.Load() == stateHealthy {
			n++
		}
	}
	return n
}

// Kill abruptly closes replica i's service — the chaos hook tests and the
// availability bench use to simulate a replica crash. Outstanding requests
// fail with ErrClosed and are retried on the surviving replicas; the
// supervisor rebuilds the replica with backoff.
func (rt *Router) Kill(i int) error {
	if i < 0 || i >= len(rt.replicas) {
		return fmt.Errorf("fleet: no replica %d", i)
	}
	r := rt.replicas[i]
	if svc := r.svc.Load(); svc != nil {
		_ = svc.Close()
	}
	rt.transitionDown(r)
	return nil
}

// SwapAll installs a new weight snapshot fleet-wide with a rolling,
// one-replica-at-a-time barrier swap: at least N−1 replicas keep serving at
// every instant, and each replica's responses switch to the new version
// stamp exactly at a batch boundary. Down or dead replicas are skipped —
// the snapshot is recorded first, so a rebuilt replica rejoins on it.
func (rt *Router) SwapAll(w map[string]*tensor.Tensor, version int64) error {
	rt.snapMu.Lock()
	rt.snapW, rt.snapV = w, version
	rt.snapMu.Unlock()
	var firstErr error
	for _, r := range rt.replicas {
		switch r.state.Load() {
		case stateDown, stateDead:
			rt.m.swapSkips.Add(1)
			continue
		}
		if err := r.swap(w, version); err != nil {
			rt.m.swapErrors.Add(1)
			if errors.Is(err, serve.ErrClosed) {
				// The replica died mid-swap; it will rejoin on the recorded
				// snapshot after its rebuild.
				continue
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("fleet: swapping replica %d: %w", r.idx, err)
			}
			continue
		}
		rt.m.swaps.Add(1)
	}
	return firstErr
}

// syncSnapshot re-installs the fleet's current snapshot on a replica whose
// version drifted. The snapshot is read while holding the replica's op
// lock: any interleaving with a concurrent SwapAll then converges on the
// newest snapshot — either this read already sees it, or SwapAll observes
// the replica healthy and re-swaps it right after.
func (rt *Router) syncSnapshot(r *Replica) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	rt.snapMu.Lock()
	w, v := rt.snapW, rt.snapV
	rt.snapMu.Unlock()
	if w == nil || r.version.Load() == v {
		return
	}
	if r.swapLocked(w, v) == nil {
		rt.m.swaps.Add(1)
	} else {
		rt.m.swapErrors.Add(1)
	}
}

// Snapshot returns the fleet's current weight snapshot and version (nil
// before the first SwapAll).
func (rt *Router) Snapshot() (map[string]*tensor.Tensor, int64) {
	rt.snapMu.Lock()
	defer rt.snapMu.Unlock()
	return rt.snapW, rt.snapV
}

// Replicas returns the fleet size.
func (rt *Router) Replicas() int { return len(rt.replicas) }

// buildService constructs (or reconstructs) replica r's serving stack from
// the factory, installing the fleet's current snapshot before the service
// accepts traffic so the replica rejoins bit-identical to its peers.
func (rt *Router) buildService(r *Replica) error {
	run, setW, err := rt.cfg.Build(r.idx)
	if err != nil {
		return err
	}
	rt.snapMu.Lock()
	w, v := rt.snapW, rt.snapV
	rt.snapMu.Unlock()
	if w != nil && setW != nil {
		if err := setW(w); err != nil {
			return fmt.Errorf("installing snapshot v%d: %w", v, err)
		}
	}
	scfg := rt.cfg.Serve
	scfg.Version = r.version.Load
	r.opMu.Lock()
	r.setW = setW
	r.version.Store(v)
	r.consecFails.Store(0)
	old := r.svc.Swap(serve.New(run, scfg))
	r.opMu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	return nil
}

// supervise is replica r's supervisor goroutine: periodic health probes
// with jitter, circuit-breaker re-admission, and capped-backoff rebuilds.
func (rt *Router) supervise(r *Replica) {
	defer rt.wg.Done()
	rng := rand.New(rand.NewSource(rt.cfg.Seed*1315423911 + int64(r.idx)*2654435761 + 1))
	backoff := rt.cfg.RestartBackoff
	for {
		// Probe cadence with ±25% jitter so N supervisors don't probe in
		// lockstep.
		wait := rt.cfg.ProbeEvery*3/4 + time.Duration(rng.Int63n(int64(rt.cfg.ProbeEvery)/2+1))
		select {
		case <-rt.stop:
			return
		case <-time.After(wait):
		case <-r.wake:
		}
		switch r.state.Load() {
		case stateHealthy:
			if err := rt.probe(r); err != nil {
				rt.noteOutcome(r, err)
			} else {
				backoff = rt.cfg.RestartBackoff
			}
		case stateEjected:
			// Circuit open: a successful probe re-admits the replica.
			if err := rt.probe(r); err == nil {
				r.consecFails.Store(0)
				if r.state.CompareAndSwap(stateEjected, stateHealthy) {
					rt.m.readmissions.Add(1)
				}
			} else {
				rt.noteOutcome(r, err)
			}
		case stateDown:
			if int(r.restarts.Load()) >= rt.cfg.MaxRestarts {
				if r.state.CompareAndSwap(stateDown, stateDead) {
					rt.m.deaths.Add(1)
				}
				continue
			}
			// Full-jitter backoff before the rebuild, abortable by stop.
			d := time.Duration(rng.Int63n(int64(backoff) + 1))
			select {
			case <-rt.stop:
				return
			case <-time.After(d):
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			r.restarts.Add(1)
			rt.m.restarts.Add(1)
			if err := rt.buildService(r); err != nil {
				continue
			}
			if err := rt.probe(r); err != nil {
				continue // stays down; next wake retries within budget
			}
			backoff = rt.cfg.RestartBackoff
			r.state.Store(stateHealthy)
			rt.m.recoveries.Add(1)
			// A rolling SwapAll that ran between the rebuild and this
			// moment skipped the replica (it was still down); reconcile so
			// it rejoins on the fleet's current snapshot, not the one it
			// was rebuilt with.
			rt.syncSnapshot(r)
		case stateDead:
			return
		}
	}
}

// probe sends the canary observation through the replica's real serving
// path under the probe timeout.
func (rt *Router) probe(r *Replica) error {
	if rt.cfg.ProbeObs == nil {
		return nil // nothing to probe with; trust the breaker alone
	}
	rt.m.probes.Add(1)
	_, _, err := r.call(rt.cfg.ProbeObs, time.Now().Add(rt.cfg.ProbeTimeout))
	if err != nil {
		rt.m.probeFails.Add(1)
	}
	return err
}

// Shutdown stops supervision and drains every replica service under ctx.
// Requests racing the shutdown fail with ErrClosed once their replica's
// drain completes.
func (rt *Router) Shutdown(ctx context.Context) error {
	if !rt.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(rt.stop)
	rt.wg.Wait()
	var firstErr error
	for _, r := range rt.replicas {
		if svc := r.svc.Load(); svc != nil {
			if err := svc.Shutdown(ctx); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
