// Package serve is the agent-inference serving layer: it coalesces
// concurrent single-observation Act requests into dynamically sized
// micro-batches and executes each batch as ONE compiled-plan session call —
// the "session batching" executor concern of the paper, grown into a
// production envelope around the act() path.
//
// A Service owns a bounded admission queue and one batcher goroutine. The
// batcher is work-conserving: when idle it runs whatever is queued (after
// one scheduler yield, so producers that were already runnable get in), and
// while a batch is in flight the next one accumulates in the queue — batch
// size follows load by itself, up to the configured maximum. It evicts
// entries whose deadline already passed, stacks the surviving observations
// along the wildcard batch dim (tensor.StackRows), runs the batch through
// the Runner, and scatters per-row results back to the waiting callers
// (tensor.SplitRows). Admission applies backpressure when the queue is
// full: reject-with-ErrQueueFull by default, or block until space frees in
// Block mode.
//
// Deadline semantics follow raysim futures: a deadline miss means the
// caller has moved on — the batch may still complete later (counted as a
// late result), but the waiting goroutine returns ErrDeadline the moment
// its deadline passes, whether the request is queued, in flight, or caught
// by the batcher's pre-assembly eviction sweep. Every admitted request is
// resolved exactly once in the metrics by whoever gets there first.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// Sentinel errors of the serving path.
var (
	// ErrQueueFull marks a request shed at admission (queue at QueueDepth
	// and Block disabled).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDeadline marks a request whose deadline passed before its result
	// was delivered (the batch may still complete; the caller has moved on).
	ErrDeadline = errors.New("serve: request deadline exceeded")
	// ErrClosed marks requests rejected or abandoned because the service is
	// shut down.
	ErrClosed = errors.New("serve: service closed")
	// ErrBadObservation marks a request whose observation failed the
	// element-space admission check.
	ErrBadObservation = errors.New("serve: observation not in element space")
)

// Runner executes one assembled micro-batch: obs is [B, elem...] and the
// result must carry the same leading batch size. It is always called from
// the single batcher goroutine, so stateful executors need no extra
// locking.
type Runner func(batch *tensor.Tensor) (*tensor.Tensor, error)

// Config tunes the batching policy and the admission envelope.
type Config struct {
	// MaxBatch flushes a micro-batch when this many requests are gathered
	// (default 32).
	MaxBatch int
	// FlushLatency is the longest the batcher may hold a non-full batch
	// open while producers keep trickling in (default 1ms). It is a ceiling,
	// not a floor: a batch closes as soon as the queue stops growing.
	FlushLatency time.Duration
	// QueueDepth bounds the admission queue (default 4*MaxBatch).
	QueueDepth int
	// Block selects the backpressure mode when the queue is full: false
	// (default) sheds the request with ErrQueueFull; true blocks the caller
	// until space frees, the request's deadline passes, or the service
	// closes.
	Block bool
	// Elem optionally declares the element space of one observation;
	// requests failing spaces.ContainsElement are rejected with
	// ErrBadObservation before admission. Nil skips the check.
	Elem spaces.Space
	// ElemShape is the element shape used to stack observations. Derived
	// from Elem when nil.
	ElemShape []int
	// Version, when set, is sampled once per dispatched batch (in the
	// batcher goroutine, before the Runner call) and stamped into every
	// response of that batch — the weight-version tag the fleet layer uses
	// to prove which snapshot served a request. Swaps installed through
	// Barrier therefore change the stamp exactly at a batch boundary.
	Version func() int64
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.FlushLatency <= 0 {
		c.FlushLatency = time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.ElemShape == nil && c.Elem != nil {
		c.ElemShape = c.Elem.Shape()
	}
	return c
}

// response is the per-request result envelope.
type response struct {
	out *tensor.Tensor
	err error
	// version is the weight-version stamp of the batch that produced this
	// response (0 when Config.Version is unset or the request never reached
	// a batch).
	version int64
}

// barrierReq is one function waiting to run in the batcher goroutine
// between batches (see Barrier).
type barrierReq struct {
	fn   func() error
	done chan error // buffered 1: the batcher's reply never blocks
}

// request is one queued Act call.
type request struct {
	obs      *tensor.Tensor
	deadline time.Time // zero = none
	enq      time.Time
	done     chan response // buffered 1: delivery never blocks the batcher
	// resolved is set (CAS) by whoever accounts for the request first — the
	// caller's deadline timer, the eviction sweep, or result delivery — so
	// each request lands in exactly one metrics outcome.
	resolved atomic.Bool
}

// Service is a micro-batching inference endpoint over one Runner.
type Service struct {
	run Runner
	cfg Config

	mu     sync.Mutex
	q      []*request
	closed bool

	// Batcher-owned scratch, reused from batch to batch.
	batch []*request
	obs   []*tensor.Tensor

	kick    chan struct{}   // 1-buffered: queue went non-empty
	closing chan struct{}   // closed when shutdown begins
	done    chan struct{}   // closed when the batcher has drained and exited
	barrier chan barrierReq // unbuffered: a send means the batcher owns the fn

	m     counters
	start time.Time
}

// New starts a service over run. Stop it with Shutdown or Close.
func New(run Runner, cfg Config) *Service {
	s := &Service{
		run:     run,
		cfg:     cfg.withDefaults(),
		kick:    make(chan struct{}, 1),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
		barrier: make(chan barrierReq),
		start:   time.Now(),
	}
	go s.loop()
	return s
}

// Act submits one observation (element-shaped, no batch dim) and blocks
// until its result row is scattered back, its deadline passes, or the
// service closes. A zero deadline means wait indefinitely.
func (s *Service) Act(obs *tensor.Tensor, deadline time.Time) (*tensor.Tensor, error) {
	out, _, err := s.ActVersion(obs, deadline)
	return out, err
}

// ActVersion is Act plus the weight-version stamp of the micro-batch that
// served the request (Config.Version sampled at dispatch; 0 when unset or
// the request never reached a batch).
func (s *Service) ActVersion(obs *tensor.Tensor, deadline time.Time) (*tensor.Tensor, int64, error) {
	if obs == nil {
		s.m.invalid.Add(1)
		return nil, 0, fmt.Errorf("%w: nil tensor", ErrBadObservation)
	}
	if s.cfg.Elem != nil && !spaces.ContainsElement(s.cfg.Elem, obs) {
		s.m.invalid.Add(1)
		return nil, 0, fmt.Errorf("%w: shape %v, element space %s", ErrBadObservation, obs.Shape(), s.cfg.Elem)
	}
	if s.cfg.ElemShape != nil && !tensor.SameShape(obs.Shape(), s.cfg.ElemShape) {
		s.m.invalid.Add(1)
		return nil, 0, fmt.Errorf("%w: shape %v, want %v", ErrBadObservation, obs.Shape(), s.cfg.ElemShape)
	}
	r := &request{obs: obs, deadline: deadline, enq: time.Now(), done: make(chan response, 1)}
	if err := s.admit(r); err != nil {
		return nil, 0, err
	}
	// Wake the batcher; a dropped kick means one is already pending.
	select {
	case s.kick <- struct{}{}:
	default:
	}
	return s.await(r)
}

// admitPoll is how often a blocked admitter re-checks the queue for space.
// A short poll keeps the implementation free of per-dequeue broadcast
// bookkeeping on the batcher's hot path.
const admitPoll = 200 * time.Microsecond

// tryAdmit appends r to the bounded queue if it has room.
func (s *Service) tryAdmit(r *request) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	if len(s.q) >= s.cfg.QueueDepth {
		return false, nil
	}
	s.q = append(s.q, r)
	s.m.admitted.Add(1)
	return true, nil
}

// admit appends r to the bounded queue, applying the configured
// backpressure mode.
func (s *Service) admit(r *request) error {
	if ok, err := s.tryAdmit(r); ok || err != nil {
		return err
	}
	if !s.cfg.Block {
		s.m.shed.Add(1)
		return ErrQueueFull
	}
	// Block mode: wait for the batcher to drain some queue, bounded by the
	// request's own deadline. A deadline that lapses while still waiting for
	// admission counts as shed (the request never entered the queue), keeping
	// the invariant Admitted == Completed + DeadlineMisses + Failed exact.
	// Both timers are stopped on return: an abandoned runtime timer stays on
	// the heap until it fires.
	var expired <-chan time.Time
	if !r.deadline.IsZero() {
		wait := time.Until(r.deadline)
		if wait <= 0 {
			s.m.shed.Add(1)
			return ErrDeadline
		}
		expire := time.NewTimer(wait)
		defer expire.Stop()
		expired = expire.C
	}
	poll := time.NewTicker(admitPoll)
	defer poll.Stop()
	for {
		select {
		case <-poll.C:
			if ok, err := s.tryAdmit(r); ok || err != nil {
				return err
			}
		case <-expired:
			s.m.shed.Add(1)
			return ErrDeadline
		case <-s.closing:
			return ErrClosed
		}
	}
}

// deadlineTimers recycles the per-request deadline timers. Almost every
// request resolves long before its deadline: a timer abandoned with
// time.After stays on the runtime's heap until it fires (2 s deadlines at
// 200 k req/s kept 400 k of them alive), and a fresh NewTimer per request
// costs three allocations the closed loop can measure. Pooled timers are
// stopped and their channel is empty.
var deadlineTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// recycleTimer stops t and returns it to the pool with its channel empty.
// received says the caller already took the expiry from t.C; otherwise a
// failed Stop means the expiry is in the channel or about to be sent.
func recycleTimer(t *time.Timer, received bool) {
	if !t.Stop() && !received {
		<-t.C
	}
	deadlineTimers.Put(t)
}

// await blocks on the request's response or its deadline. It also watches
// the batcher's exit (s.done): once the drain has completed, no one is left
// to deliver a response, so a still-unresolved request fails with ErrClosed
// immediately instead of hanging — the guarantee Act makes to callers racing
// Shutdown.
func (s *Service) await(r *request) (*tensor.Tensor, int64, error) {
	var expire <-chan time.Time
	fired := false // the expiry was received from the timer's channel
	if !r.deadline.IsZero() {
		wait := time.Until(r.deadline)
		if wait <= 0 {
			if r.resolved.CompareAndSwap(false, true) {
				s.m.misses.Add(1)
			}
			return nil, 0, ErrDeadline
		}
		t := deadlineTimers.Get().(*time.Timer)
		t.Reset(wait)
		defer func() { recycleTimer(t, fired) }()
		expire = t.C
	}
	select {
	case resp := <-r.done:
		return resp.out, resp.version, resp.err
	case <-expire:
		fired = true
		if r.resolved.CompareAndSwap(false, true) {
			s.m.misses.Add(1)
			return nil, 0, ErrDeadline
		}
		// The batcher resolved it between the timer firing and the CAS:
		// the response is already (or about to be) in the buffered channel.
		resp := <-r.done
		return resp.out, resp.version, resp.err
	case <-s.done:
		// Drain complete. A delivered response beats the ErrClosed fallback:
		// if the CAS loses, the buffered send is imminent.
		if r.resolved.CompareAndSwap(false, true) {
			s.m.failed.Add(1)
			return nil, 0, ErrClosed
		}
		resp := <-r.done
		return resp.out, resp.version, resp.err
	}
}

// loop is the batcher: one goroutine collecting micro-batches until
// shutdown completes the drain. Between batches it serves at most one
// pending barrier function, so a swap waits at most one batch under
// continuous load and can never starve.
func (s *Service) loop() {
	defer close(s.done)
	for {
		select {
		case b := <-s.barrier:
			b.done <- runBarrier(b.fn)
		default:
		}
		if !s.awaitWork() {
			return
		}
		s.dispatch(s.gather())
		// Drop the scratch's references: an idle service pins no caller data.
		clear(s.batch)
		clear(s.obs)
	}
}

// runBarrier executes a barrier function, converting a panic into an error
// so a bad swap cannot kill the batcher.
func runBarrier(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: barrier panicked: %v", r)
		}
	}()
	return fn()
}

// Barrier runs fn in the batcher goroutine, strictly between micro-batches:
// no Runner call is in flight while fn executes, and every batch dispatched
// after Barrier returns sees fn's effects. This is the weight-swap hook —
// fn typically installs a new parameter snapshot into the executor the
// Runner closes over. Returns fn's error, or ErrClosed if the service shut
// down before fn could run. fn must not call back into the service.
func (s *Service) Barrier(fn func() error) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		// Once shutdown begins no new swaps land, even though the batcher
		// may still be draining queued requests.
		return ErrClosed
	}
	req := barrierReq{fn: fn, done: make(chan error, 1)}
	select {
	case s.barrier <- req:
		// The batcher owns the request now and always replies.
		return <-req.done
	case <-s.done:
		return ErrClosed
	}
}

// awaitWork blocks until the queue is non-empty; false means the service is
// closed and the queue fully drained.
func (s *Service) awaitWork() bool {
	for {
		s.mu.Lock()
		n, closed := len(s.q), s.closed
		s.mu.Unlock()
		if n > 0 {
			return true
		}
		if closed {
			return false
		}
		select {
		case <-s.kick:
		case b := <-s.barrier:
			b.done <- runBarrier(b.fn)
		case <-s.closing:
		}
	}
}

// gather closes the next micro-batch: up to MaxBatch requests off the head
// of the (non-empty) queue. A non-full batch is held only while the queue
// keeps growing: the batcher yields once, and if nothing arrived every
// producer that was already runnable has had its turn, so it flushes. An
// idle service therefore answers a lone request at once, and under load the
// batch is whatever queued up while the previous one ran. FlushLatency caps
// how long a trickle of producers can keep a batch open; a closing service
// flushes whatever is queued.
func (s *Service) gather() []*request {
	var flushAt time.Time
	seen := 0 // queue length at the previous look
	for {
		s.mu.Lock()
		n := len(s.q)
		if n >= s.cfg.MaxBatch || n == seen || s.closed || (seen > 0 && time.Now().After(flushAt)) {
			n = min(n, s.cfg.MaxBatch)
			s.batch = append(s.batch[:0], s.q[:n]...)
			rest := copy(s.q, s.q[n:])
			clear(s.q[rest:])
			s.q = s.q[:rest]
			s.mu.Unlock()
			return s.batch
		}
		s.mu.Unlock()
		if seen == 0 {
			flushAt = time.Now().Add(s.cfg.FlushLatency)
		}
		seen = n
		runtime.Gosched()
	}
}

// dispatch evicts expired requests, executes the surviving rows as one
// Runner call, and scatters results.
func (s *Service) dispatch(batch []*request) {
	now := time.Now()
	live := batch[:0]
	for _, r := range batch {
		if !r.deadline.IsZero() && now.After(r.deadline) {
			if r.resolved.CompareAndSwap(false, true) {
				s.m.misses.Add(1)
			}
			s.m.evicted.Add(1)
			r.done <- response{err: ErrDeadline}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	obs := s.obs[:0]
	for _, r := range live {
		obs = append(obs, r.obs)
	}
	s.obs = obs
	elem := s.cfg.ElemShape
	if elem == nil {
		// No declared element shape: stack on the first row's shape (later
		// mismatched rows fail the whole batch with an error, not a panic).
		elem = live[0].obs.Shape()
	}
	// The version stamp is sampled before the Runner call: swaps only land
	// through Barrier (same goroutine), so this is exactly the snapshot the
	// batch executes against.
	var version int64
	if s.cfg.Version != nil {
		version = s.cfg.Version()
	}
	stacked, err := tensor.StackRows(elem, obs)
	var out *tensor.Tensor
	if err == nil {
		out, err = s.runProtected(stacked)
	}
	if err == nil {
		if out == nil || out.Rank() == 0 || out.Dim(0) != len(live) {
			err = fmt.Errorf("serve: runner returned %v for a %d-row batch", shapeOrNil(out), len(live))
		}
	}
	var rows []*tensor.Tensor
	if err == nil {
		rows, err = tensor.SplitRows(out)
	}
	s.m.batches.Add(1)
	s.m.batchRows.Add(int64(len(live)))
	s.m.recordBatchSize(len(live))
	for i, r := range live {
		resp := response{err: err, version: version}
		if err == nil {
			resp = response{out: rows[i], version: version}
		}
		if r.resolved.CompareAndSwap(false, true) {
			if err == nil {
				s.m.completed.Add(1)
				s.m.lat.record(time.Since(r.enq))
			} else {
				s.m.failed.Add(1)
			}
		} else {
			s.m.late.Add(1)
		}
		r.done <- resp
	}
}

// runProtected invokes the Runner, converting a panic into an error: a
// crashing model fails its batch (and, in a fleet, trips the replica's
// circuit breaker) instead of killing the whole process — the raysim
// supervision contract applied to serving.
func (s *Service) runProtected(batch *tensor.Tensor) (out *tensor.Tensor, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("serve: runner panicked: %v", r)
		}
	}()
	return s.run(batch)
}

func shapeOrNil(t *tensor.Tensor) interface{} {
	if t == nil {
		return "nil"
	}
	return t.Shape()
}

// Shutdown stops admissions and drains the queue: queued requests are still
// batched and answered (expired ones evicted) until the queue empties. If
// ctx expires first, the remaining queue is failed with ErrClosed and an
// error reports how many requests were abandoned — a shutdown never hangs
// on a non-empty queue.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.closing)
	}
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		rest := s.q
		s.q = nil
		s.mu.Unlock()
		for _, r := range rest {
			if r.resolved.CompareAndSwap(false, true) {
				s.m.failed.Add(1)
			}
			r.done <- response{err: ErrClosed}
		}
		if len(rest) > 0 {
			return fmt.Errorf("serve: shutdown abandoned %d queued requests: %w", len(rest), ctx.Err())
		}
		return ctx.Err()
	}
}

// Close shuts down immediately: admissions stop and queued requests fail
// with ErrClosed without being executed. The in-flight batch (if any) still
// completes.
func (s *Service) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if err == context.Canceled {
		// Queue was already empty: the immediate cancel is expected, not an
		// error. An "abandoned N requests" error passes through untouched.
		return nil
	}
	return err
}

// QueueDepth reports the current admission-queue length.
func (s *Service) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q)
}
