package raysim

import (
	"context"
	"math/rand"
	"sync/atomic"
	"time"
)

// Policy is a pool's restart rule: Budget restart attempts per member (zero
// or negative: never restart), each after a full-jitter sleep from a window
// that starts at Backoff (zero: no sleep) and doubles per attempt up to Cap.
type Policy struct {
	Budget       int
	Backoff, Cap time.Duration
}

// Supervisor restarts the members of one pool (Ape-X workers or shards,
// IMPALA actors, fleet replicas) under one Policy, and counts the pool's
// successful restarts, members left and time since the first permanent
// loss.
type Supervisor struct {
	policy   Policy
	restarts atomic.Int64
	left     atomic.Int64
	lostAt   atomic.Int64 // unix nanos of the first permanent loss
}

// NewSupervisor returns a supervisor for a pool of n members.
func NewSupervisor(p Policy, n int) *Supervisor {
	s := &Supervisor{policy: p}
	s.left.Store(int64(n))
	return s
}

// Member is one member's restart state: attempts used and current window.
// Restart and Reset belong to one goroutine at a time; Attempts may be read
// from any.
type Member struct {
	s        *Supervisor
	rng      *rand.Rand
	window   time.Duration
	attempts atomic.Int64
}

// Member returns fresh restart state whose jitter comes from rng.
func (s *Supervisor) Member(rng *rand.Rand) *Member {
	return &Member{s: s, rng: rng, window: s.policy.Backoff}
}

// fullJitter maps window d and a uniform draw u ∈ [0,1) to a sleep in
// [0, d): the doubling window still bounds the restart rate, but members
// that fail together restart at independent points instead of in lockstep.
func fullJitter(d time.Duration, u float64) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(u * float64(d))
}

// next draws the sleep before an attempt and doubles the window up to Cap.
func (m *Member) next() time.Duration {
	d := fullJitter(m.window, m.rng.Float64())
	m.window = min(2*m.window, m.s.policy.Cap)
	return d
}

// Restart sleeps a draw from the window (abortable by ctx), doubles the
// window and calls respawn, retrying while the budget lasts. It reports
// whether a respawn succeeded: false means the budget is spent or ctx is
// done.
func (m *Member) Restart(ctx context.Context, respawn func() error) bool {
	for m.attempts.Load() < int64(m.s.policy.Budget) {
		if d := m.next(); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return false
			case <-t.C:
			}
		} else if ctx.Err() != nil {
			return false
		}
		m.attempts.Add(1)
		if respawn() == nil {
			m.s.restarts.Add(1)
			return true
		}
	}
	return false
}

// Reset puts the window back to Backoff; spent attempts stay spent.
func (m *Member) Reset() { m.window = m.s.policy.Backoff }

// Attempts is how many respawns the member has tried.
func (m *Member) Attempts() int64 { return m.attempts.Load() }

// Restarts counts the pool's successful respawns.
func (s *Supervisor) Restarts() int64 { return s.restarts.Load() }

// Lost records a member's permanent loss and returns how many are left.
func (s *Supervisor) Lost() int {
	s.lostAt.CompareAndSwap(0, time.Now().UnixNano())
	return int(s.left.Add(-1))
}

// Degraded is the time since the pool first lost a member for good (zero
// while none is lost).
func (s *Supervisor) Degraded() time.Duration {
	if at := s.lostAt.Load(); at != 0 {
		return time.Duration(time.Now().UnixNano() - at)
	}
	return 0
}
