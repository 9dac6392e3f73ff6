// Package raysim is the distributed-execution substrate standing in for the
// Ray actor engine (Moritz et al.): named actors with serial mailboxes,
// asynchronous remote method calls returning futures, and a configurable
// per-message latency/bandwidth cost model. The paper's distributed
// experiments measure coordination efficiency — how many round trips and how
// much per-call overhead an algorithm's execution plan incurs — which this
// engine reproduces without a datacenter (see DESIGN.md §2).
//
// The engine is fault-aware: actor-method panics crash the actor *cleanly*
// (the offending call and every queued call fail with an error instead of
// hanging), futures support deadlines, crashed or hung actors can be
// re-spawned from a registered behavior factory, and a deterministic
// FaultPlan (see faults.go) injects crashes, errors and latency for
// reproducible chaos testing.
package raysim

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rlgraph/internal/tensor"
)

// Sentinel errors for the failure modes the supervisor layers match on.
var (
	// ErrTimeout marks a call that exceeded its deadline (the actor may
	// still complete it later; the caller has moved on).
	ErrTimeout = errors.New("raysim: call deadline exceeded")
	// ErrStopped marks calls to a gracefully stopped actor.
	ErrStopped = errors.New("raysim: actor stopped")
	// ErrCrashed marks calls lost to an actor that died from a panic or an
	// injected crash.
	ErrCrashed = errors.New("raysim: actor crashed")
	// ErrMailboxClosed marks a send that raced actor termination.
	ErrMailboxClosed = errors.New("raysim: mailbox closed")
	// ErrInjected marks failures produced by a FaultPlan.
	ErrInjected = errors.New("raysim: injected fault")
)

// IsTimeout reports whether err is a call-deadline failure.
func IsTimeout(err error) bool { return errors.Is(err, ErrTimeout) }

// PanicError is delivered when an actor method panics. The actor crashes:
// queued and subsequent calls fail with ErrCrashed.
type PanicError struct {
	Actor string
	Value interface{}
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("raysim: actor %q panicked: %v", e.Actor, e.Value)
}

// Unwrap lets errors.Is(err, ErrCrashed) match panics.
func (e *PanicError) Unwrap() error { return ErrCrashed }

// Method is an actor method: invoked serially from the actor's goroutine.
type Method func(args []interface{}) (interface{}, error)

// Behavior is the method table of an actor.
type Behavior map[string]Method

// BehaviorFactory builds a fresh behavior for an actor incarnation. It is
// called once at registration and once per Restart; it must not call back
// into the Cluster.
type BehaviorFactory func() (Behavior, error)

// Config tunes the engine's communication cost model and fault handling.
type Config struct {
	// PerCallLatency is added to every remote call's delivery (models IPC
	// and scheduling overhead per task; Ray's is tens of microseconds).
	PerCallLatency time.Duration
	// BytesPerSecond models serialization/transfer cost of tensor payloads
	// (0 disables the charge).
	BytesPerSecond float64
	// CallTimeout is the default per-call deadline applied by Future.Get
	// (0 = block forever, the pre-fault-tolerance behavior). Explicit
	// GetTimeout/GetContext calls override it.
	CallTimeout time.Duration
	// MailboxSize bounds each actor's queue (default 1024); senders block
	// when the actor falls far behind (backpressure).
	MailboxSize int
	// ShutdownGrace bounds how long StopAll waits for actors to drain
	// before abandoning stuck ones (default 10s; negative = wait forever).
	ShutdownGrace time.Duration
	// Faults optionally injects deterministic failures per actor name.
	Faults *FaultPlan
}

// Cluster owns the actors and cost model.
type Cluster struct {
	cfg Config

	mu        sync.Mutex
	actors    map[string]*ActorRef
	factories map[string]BehaviorFactory
	faults    map[string]*faultState  // persistent across restarts, by name
	metrics   map[string]*metricState // persistent across restarts, by name

	// Calls counts remote invocations (the coordination-efficiency metric).
	Calls int64
	// BytesMoved tallies estimated payload bytes.
	BytesMoved int64
	// Restarts counts actor re-spawns performed via Restart.
	Restarts int64
}

// NewCluster returns an engine with the given cost model.
func NewCluster(cfg Config) *Cluster {
	if cfg.MailboxSize <= 0 {
		cfg.MailboxSize = 1024
	}
	return &Cluster{
		cfg:       cfg,
		actors:    make(map[string]*ActorRef),
		factories: make(map[string]BehaviorFactory),
		faults:    make(map[string]*faultState),
		metrics:   make(map[string]*metricState),
	}
}

// call is one queued invocation.
type call struct {
	method    string
	args      []interface{}
	fut       *Future
	enqueued  time.Time
	notBefore time.Time
}

// ActorRef addresses one incarnation of an actor; methods execute serially
// in its goroutine. After a Restart the old ref stays dead and the new
// incarnation is reachable via Cluster.Actor(name).
type ActorRef struct {
	name     string
	cluster  *Cluster
	behavior Behavior
	mailbox  chan call
	quit     chan struct{} // termination signal
	done     chan struct{} // closed when the run loop has exited
	quitOnce sync.Once
	stopped  atomic.Bool
	crashed  atomic.Bool
	killMu   sync.Mutex
	killErr  error
	faults   *faultState  // nil when no plan entry matches
	metrics  *metricState // shared by every incarnation of this name
}

// Future is the result handle of a remote call.
type Future struct {
	done chan struct{}
	once sync.Once
	val  interface{}
	err  error
	def  time.Duration // default deadline applied by Get (0 = none)
}

func newFuture(def time.Duration) *Future {
	return &Future{done: make(chan struct{}), def: def}
}

// deliver resolves the future exactly once; later deliveries are dropped
// (e.g. a timed-out call completing after the caller moved on).
func (f *Future) deliver(v interface{}, err error) {
	f.once.Do(func() {
		f.val, f.err = v, err
		close(f.done)
	})
}

// Get blocks until the call completes, or until the cluster's configured
// CallTimeout (when set) elapses.
func (f *Future) Get() (interface{}, error) {
	if f.def > 0 {
		return f.GetTimeout(f.def)
	}
	<-f.done
	return f.val, f.err
}

// GetTimeout is Get with an explicit deadline; d <= 0 blocks forever. On
// expiry the error matches ErrTimeout and the result is abandoned.
func (f *Future) GetTimeout(d time.Duration) (interface{}, error) {
	if d <= 0 {
		<-f.done
		return f.val, f.err
	}
	select {
	case <-f.done:
		return f.val, f.err
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.done:
		return f.val, f.err
	case <-t.C:
		return nil, fmt.Errorf("raysim: call timed out after %v: %w", d, ErrTimeout)
	}
}

// GetContext is Get bounded by a context.
func (f *Future) GetContext(ctx context.Context) (interface{}, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("raysim: %w: %v", ErrTimeout, ctx.Err())
		}
		return nil, fmt.Errorf("raysim: call canceled: %w", ctx.Err())
	}
}

// TryGet reports the result without blocking; ok is false while the call is
// still in flight.
func (f *Future) TryGet() (v interface{}, err error, ok bool) {
	select {
	case <-f.done:
		return f.val, f.err, true
	default:
		return nil, nil, false
	}
}

// MustGet is Get, panicking on error (driver-loop convenience for examples
// and tests; executor hot loops propagate errors instead).
func (f *Future) MustGet() interface{} {
	v, err := f.Get()
	if err != nil {
		panic(err)
	}
	return v
}

func (c *Cluster) newRef(name string, behavior Behavior) *ActorRef {
	return &ActorRef{
		name:     name,
		cluster:  c,
		behavior: behavior,
		mailbox:  make(chan call, c.cfg.MailboxSize),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		faults:   c.faultStateFor(name),
		metrics:  c.metricStateFor(name),
	}
}

// NewActor spawns an actor with the given behavior. Registering a duplicate
// name is an error.
func (c *Cluster) NewActor(name string, behavior Behavior) (*ActorRef, error) {
	a := c.newRef(name, behavior)
	c.mu.Lock()
	if _, dup := c.actors[name]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("raysim: duplicate actor %q", name)
	}
	c.actors[name] = a
	c.mu.Unlock()
	go a.run()
	return a, nil
}

// NewRestartableActor spawns an actor whose behavior comes from factory and
// registers the factory so Restart can re-spawn it after a crash or hang.
func (c *Cluster) NewRestartableActor(name string, factory BehaviorFactory) (*ActorRef, error) {
	behavior, err := factory()
	if err != nil {
		return nil, err
	}
	a, err := c.NewActor(name, behavior)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.factories[name] = factory
	c.mu.Unlock()
	return a, nil
}

// Restart kills the current incarnation of the named actor (its queued calls
// fail with ErrCrashed-wrapped errors; a goroutine stuck in a hung method is
// abandoned) and re-spawns a fresh one from the registered factory. Fault
// state persists across incarnations, so a crash-on-nth-call plan fires
// once, not once per restart. Concurrent Restarts of one actor coalesce.
func (c *Cluster) Restart(name string) (*ActorRef, error) {
	c.mu.Lock()
	old := c.actors[name]
	factory := c.factories[name]
	c.mu.Unlock()
	if old == nil {
		return nil, fmt.Errorf("raysim: restart of unknown actor %q", name)
	}
	if factory == nil {
		return nil, fmt.Errorf("raysim: actor %q has no registered factory", name)
	}
	old.Kill(fmt.Errorf("raysim: actor %q superseded by restart: %w", name, ErrCrashed))
	behavior, err := factory()
	if err != nil {
		return nil, fmt.Errorf("raysim: restart of %q failed: %w", name, err)
	}
	a := c.newRef(name, behavior)
	c.mu.Lock()
	if c.actors[name] != old {
		// Lost a restart race: adopt the winner's incarnation (a was never
		// started, so it can simply be dropped).
		cur := c.actors[name]
		c.mu.Unlock()
		return cur, nil
	}
	c.actors[name] = a
	c.mu.Unlock()
	atomic.AddInt64(&c.Restarts, 1)
	go a.run()
	return a, nil
}

// Actor returns the current incarnation of a registered actor, or nil.
func (c *Cluster) Actor(name string) *ActorRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.actors[name]
}

func (a *ActorRef) run() {
	for {
		select {
		case msg := <-a.mailbox:
			if err := a.process(msg); err != nil {
				a.terminate(err)
				return
			}
		case <-a.quit:
			a.terminate(a.killReason())
			return
		}
	}
}

// process executes one queued call, applying the latency model and any
// injected faults. A non-nil return is a crash: the call's future already
// holds the crash error and the actor must terminate.
func (a *ActorRef) process(msg call) error {
	a.metrics.noteDequeue(time.Since(msg.enqueued))
	var inj injectedFault
	if a.faults != nil {
		inj = a.faults.next()
	}
	// Model delivery latency (plus injected slowness): the message is not
	// processable before its arrival time. A terminating actor skips the
	// wait — shutdown must not be gated on a simulated slow link.
	delay := time.Until(msg.notBefore) + inj.extraLatency
	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-a.quit:
			t.Stop()
		}
	}
	if inj.crash {
		err := fmt.Errorf("raysim: actor %q: injected crash on call %d: %w, %w",
			a.name, inj.callIndex, ErrInjected, ErrCrashed)
		msg.fut.deliver(nil, err)
		return err
	}
	if inj.err != nil {
		msg.fut.deliver(nil, inj.err)
		return nil
	}
	m := a.behavior[msg.method]
	if m == nil {
		msg.fut.deliver(nil, fmt.Errorf("raysim: actor %q has no method %q", a.name, msg.method))
		return nil
	}
	v, err := a.invoke(m, msg.args)
	var pe *PanicError
	if errors.As(err, &pe) {
		msg.fut.deliver(nil, err)
		return err
	}
	msg.fut.deliver(v, err)
	return nil
}

// invoke runs a method, recovering panics into a crash error so a panicking
// method can never hang queued futures.
func (a *ActorRef) invoke(m Method, args []interface{}) (v interface{}, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Actor: a.name, Value: r, Stack: debug.Stack()}
		}
	}()
	return m(args)
}

// terminate drains the mailbox — processing remaining calls on a graceful
// stop, failing them on a crash — then marks the actor done and parks a
// drainer for any sends that raced termination.
func (a *ActorRef) terminate(cause error) {
	a.stopped.Store(true)
	if cause != nil {
		a.crashed.Store(true)
	}
	for {
		select {
		case msg := <-a.mailbox:
			if cause != nil {
				msg.fut.deliver(nil, fmt.Errorf("raysim: actor %q dead: %w", a.name, cause))
			} else if err := a.process(msg); err != nil {
				cause = err
				a.crashed.Store(true)
			}
		default:
			// The parked drainer and the cluster's registry keep this ref
			// reachable for the life of the process; the behavior — read only
			// by this goroutine — and the state its methods close over need
			// not be.
			a.behavior = nil
			close(a.done)
			go a.drainAbandoned(cause)
			return
		}
	}
}

// drainAbandoned fails stragglers that won the send/done select race after
// termination. It parks on the mailbox for the cluster's lifetime (one idle
// goroutine per dead actor, holding the ref but not its behavior —
// acceptable for a simulator, and the only way to guarantee no future ever
// hangs).
func (a *ActorRef) drainAbandoned(cause error) {
	if cause == nil {
		cause = ErrStopped
	}
	for msg := range a.mailbox {
		msg.fut.deliver(nil, fmt.Errorf("raysim: actor %q dead: %w", a.name, cause))
	}
}

// Name returns the actor's registered name.
func (a *ActorRef) Name() string { return a.name }

// Crashed reports whether this incarnation died from a panic, injected
// crash, or kill (restart) rather than a graceful Stop.
func (a *ActorRef) Crashed() bool { return a.crashed.Load() }

func (a *ActorRef) killReason() error {
	a.killMu.Lock()
	defer a.killMu.Unlock()
	return a.killErr
}

// Call invokes a method asynchronously, returning a future. The engine's
// latency and payload cost are charged to the delivery time. Calls to a
// stopped or crashed actor fail immediately; a send racing termination fails
// with ErrMailboxClosed instead of blocking forever on a full mailbox.
func (a *ActorRef) Call(method string, args ...interface{}) *Future {
	f := newFuture(a.cluster.cfg.CallTimeout)
	if a.stopped.Load() {
		f.deliver(nil, a.unavailableErr())
		return f
	}
	atomic.AddInt64(&a.cluster.Calls, 1)
	delay := a.cluster.cfg.PerCallLatency
	if bps := a.cluster.cfg.BytesPerSecond; bps > 0 {
		bytes := estimateBytes(args)
		atomic.AddInt64(&a.cluster.BytesMoved, bytes)
		delay += time.Duration(float64(bytes) / bps * float64(time.Second))
	}
	now := time.Now()
	c := call{method: method, args: args, fut: f, enqueued: now, notBefore: now.Add(delay)}
	blocked := false
	select {
	case a.mailbox <- c:
	default:
		// Mailbox full: record the backpressure event, then block.
		blocked = true
		select {
		case a.mailbox <- c:
		case <-a.done:
			a.metrics.noteEnqueue(len(a.mailbox), blocked)
			f.deliver(nil, fmt.Errorf("raysim: actor %q: %w", a.name, ErrMailboxClosed))
			return f
		}
	}
	a.metrics.noteEnqueue(len(a.mailbox), blocked)
	return f
}

func (a *ActorRef) unavailableErr() error {
	if a.crashed.Load() {
		return fmt.Errorf("raysim: actor %q: %w", a.name, ErrCrashed)
	}
	return fmt.Errorf("raysim: actor %q: %w", a.name, ErrStopped)
}

// Stop shuts the actor down gracefully after the mailbox drains.
func (a *ActorRef) Stop() {
	a.stopped.Store(true)
	a.quitOnce.Do(func() { close(a.quit) })
}

// Kill crashes the actor: queued and future calls fail with cause. A
// goroutine stuck inside a hung method cannot be interrupted — it is
// abandoned and its queued calls resolve only through caller deadlines.
func (a *ActorRef) Kill(cause error) {
	if cause == nil {
		cause = ErrCrashed
	}
	a.killMu.Lock()
	if a.killErr == nil {
		a.killErr = cause
	}
	a.killMu.Unlock()
	a.stopped.Store(true)
	a.crashed.Store(true)
	a.quitOnce.Do(func() { close(a.quit) })
}

// Wait blocks until the actor goroutine exits.
func (a *ActorRef) Wait() { <-a.done }

// WaitTimeout is Wait bounded by d; it reports whether the actor exited.
func (a *ActorRef) WaitTimeout(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-a.done:
		return true
	case <-t.C:
		return false
	}
}

// StopAll stops every actor and waits for them up to the configured
// shutdown grace, abandoning actors stuck in hung methods.
func (c *Cluster) StopAll() {
	c.mu.Lock()
	actors := make([]*ActorRef, 0, len(c.actors))
	for _, a := range c.actors {
		actors = append(actors, a)
	}
	c.mu.Unlock()
	for _, a := range actors {
		a.Stop()
	}
	grace := c.cfg.ShutdownGrace
	if grace == 0 {
		grace = 10 * time.Second
	}
	if grace < 0 {
		for _, a := range actors {
			a.Wait()
		}
		return
	}
	deadline := time.Now().Add(grace)
	for _, a := range actors {
		remain := time.Until(deadline)
		if remain <= 0 || !a.WaitTimeout(remain) {
			return
		}
	}
}

// estimateBytes sizes tensor payloads (8 bytes per element) plus a fixed
// per-arg envelope.
func estimateBytes(args []interface{}) int64 {
	var n int64
	for _, a := range args {
		n += 64 // envelope
		n += payloadBytes(a)
	}
	return n
}

func payloadBytes(v interface{}) int64 {
	switch x := v.(type) {
	case *tensor.Tensor:
		return int64(8 * x.Size())
	case []*tensor.Tensor:
		var n int64
		for _, t := range x {
			n += int64(8 * t.Size())
		}
		return n
	case map[string]*tensor.Tensor:
		var n int64
		for _, t := range x {
			n += int64(8 * t.Size())
		}
		return n
	default:
		return 0
	}
}
