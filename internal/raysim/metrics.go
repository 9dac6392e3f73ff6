package raysim

import (
	"sync"
	"time"
)

// ActorMetrics is a snapshot of one actor's mailbox/backpressure counters.
// Metrics are keyed by actor name on the Cluster and persist across restarts
// (like fault state), so a fragment that crashes and recovers keeps one
// continuous history.
type ActorMetrics struct {
	// CallsEnqueued counts calls accepted into the mailbox; CallsProcessed
	// counts calls the actor goroutine dequeued (including calls that then
	// failed or crashed the actor).
	CallsEnqueued  int64
	CallsProcessed int64
	// MailboxHWM is the high-water mark of the mailbox depth observed at
	// enqueue time — how far the actor fell behind its callers.
	MailboxHWM int
	// BlockedSends counts sends that found the mailbox full and had to block
	// (backpressure events).
	BlockedSends int64
	// QueueWaitTotal / QueueWaitMax measure how long calls sat enqueued
	// before the actor goroutine picked them up (excluding the modeled
	// delivery latency, which runs after dequeue).
	QueueWaitTotal time.Duration
	QueueWaitMax   time.Duration
}

// metricState is the per-actor-name metrics accumulator.
type metricState struct {
	mu sync.Mutex
	m  ActorMetrics
}

func (s *metricState) noteEnqueue(depth int, blocked bool) {
	s.mu.Lock()
	s.m.CallsEnqueued++
	if depth > s.m.MailboxHWM {
		s.m.MailboxHWM = depth
	}
	if blocked {
		s.m.BlockedSends++
	}
	s.mu.Unlock()
}

func (s *metricState) noteDequeue(wait time.Duration) {
	s.mu.Lock()
	s.m.CallsProcessed++
	s.m.QueueWaitTotal += wait
	if wait > s.m.QueueWaitMax {
		s.m.QueueWaitMax = wait
	}
	s.mu.Unlock()
}

// metricStateFor returns the persistent metrics accumulator for an actor
// name, creating it on first use.
func (c *Cluster) metricStateFor(name string) *metricState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.metrics[name]
	if !ok {
		st = &metricState{}
		c.metrics[name] = st
	}
	return st
}

// ActorMetricsSnapshot returns a copy of every actor's metrics, keyed by
// actor name.
func (c *Cluster) ActorMetricsSnapshot() map[string]ActorMetrics {
	c.mu.Lock()
	names := make([]string, 0, len(c.metrics))
	states := make([]*metricState, 0, len(c.metrics))
	for n, st := range c.metrics {
		names = append(names, n)
		states = append(states, st)
	}
	c.mu.Unlock()
	out := make(map[string]ActorMetrics, len(names))
	for i, st := range states {
		st.mu.Lock()
		out[names[i]] = st.m
		st.mu.Unlock()
	}
	return out
}
