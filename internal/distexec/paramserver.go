package distexec

import (
	"fmt"
	"sync"

	"rlgraph/internal/tensor"
)

// ParameterServer is the distributed-TensorFlow-style global variable store
// (paper Fig. 4, right column): one process owns the global weights, the
// learner pushes updated values, and workers pull snapshots — with version
// numbers so executors can measure and bound staleness. All methods are safe
// for concurrent use.
type ParameterServer struct {
	mu      sync.RWMutex
	weights map[string]*tensor.Tensor
	version int64

	// subs are version-change subscribers (see Subscribe). Each channel is
	// 1-buffered and coalescing: a slow subscriber sees only the newest
	// version, never a backlog, and a write never blocks on a reader.
	subMu  sync.Mutex
	subs   map[int]chan int64
	nextID int
}

// NewParameterServer initializes the global variables from a snapshot.
func NewParameterServer(init map[string]*tensor.Tensor) *ParameterServer {
	ps := &ParameterServer{weights: make(map[string]*tensor.Tensor, len(init))}
	for k, v := range init {
		ps.weights[k] = v.Clone()
	}
	return ps
}

// Version returns the current weight version (increments on every write).
func (ps *ParameterServer) Version() int64 {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	return ps.version
}

// Pull returns a deep-copied snapshot and its version.
func (ps *ParameterServer) Pull() (map[string]*tensor.Tensor, int64) {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	out := make(map[string]*tensor.Tensor, len(ps.weights))
	for k, v := range ps.weights {
		out[k] = v.Clone()
	}
	return out, ps.version
}

// Push replaces the global weights (synchronous learner → PS) and returns
// the new version.
func (ps *ParameterServer) Push(weights map[string]*tensor.Tensor) (int64, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for k, v := range weights {
		cur, ok := ps.weights[k]
		if !ok {
			return 0, fmt.Errorf("distexec: parameter server has no variable %q", k)
		}
		if !tensor.SameShape(cur.Shape(), v.Shape()) {
			return 0, fmt.Errorf("distexec: push shape mismatch for %q: %v vs %v",
				k, cur.Shape(), v.Shape())
		}
		ps.weights[k] = v.Clone()
	}
	ps.version++
	v := ps.version
	ps.notify(v)
	return v, nil
}

// Subscribe registers a version-change subscriber: the returned channel
// receives the new version number after every Push. The channel
// is coalescing — when the subscriber lags, intermediate versions are
// dropped and only the newest is delivered — so a write never blocks and a
// reader always converges on the latest version. cancel unregisters the
// subscriber and closes the channel; it is safe to call more than once.
//
// This is the publisher hook of the serving-fleet weight pipeline: a fleet
// publisher subscribes, pulls a snapshot on every notification, and swaps it
// into replicas between batches.
func (ps *ParameterServer) Subscribe() (ch <-chan int64, cancel func()) {
	ps.subMu.Lock()
	if ps.subs == nil {
		ps.subs = make(map[int]chan int64)
	}
	id := ps.nextID
	ps.nextID++
	c := make(chan int64, 1)
	ps.subs[id] = c
	ps.subMu.Unlock()
	return c, func() {
		ps.subMu.Lock()
		if sc, ok := ps.subs[id]; ok {
			delete(ps.subs, id)
			close(sc)
		}
		ps.subMu.Unlock()
	}
}

// notify delivers v to every subscriber, coalescing onto the 1-buffered
// channels: replace a stale pending value rather than block.
func (ps *ParameterServer) notify(v int64) {
	ps.subMu.Lock()
	defer ps.subMu.Unlock()
	for _, c := range ps.subs {
		select {
		case c <- v:
		default:
			select {
			case <-c: // drop the stale pending version
			default:
			}
			select {
			case c <- v:
			default:
			}
		}
	}
}
