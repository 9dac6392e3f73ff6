package fleet

import (
	"sync"
	"sync/atomic"
	"time"

	"rlgraph/internal/raysim"
	"rlgraph/internal/serve"
	"rlgraph/internal/tensor"
)

// Replica lifecycle states driven by the circuit breaker and supervisor.
const (
	// stateHealthy replicas take traffic.
	stateHealthy int32 = iota
	// stateEjected replicas are out of rotation (circuit open) but their
	// service is alive; a successful probe re-admits them.
	stateEjected
	// stateDown replicas lost their service (crash, Kill, ErrClosed); the
	// supervisor rebuilds them with backoff.
	stateDown
	// stateDead replicas exhausted their restart budget and never return.
	stateDead
)

func stateName(s int32) string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateEjected:
		return "ejected"
	case stateDown:
		return "down"
	default:
		return "dead"
	}
}

// Replica is one serving shard: its own serve.Service (hence its own
// executor and arena) plus the supervision bookkeeping the router and its
// supervisor goroutine share. The service pointer is atomic so the request
// path never takes a lock; rebuilds and weight swaps serialize on opMu.
type Replica struct {
	idx  int
	svc  atomic.Pointer[serve.Service]
	wake chan struct{} // nudges the supervisor on down transitions

	// version is the weight version the replica currently serves; the
	// service's Version hook reads it from the batcher goroutine and swap
	// writes it inside the barrier, so every response stamp matches the
	// snapshot its batch actually executed against.
	version atomic.Int64

	state       atomic.Int32
	inflight    atomic.Int64
	consecFails atomic.Int64
	// member is the replica's restart state (attempts, backoff window);
	// only its supervisor goroutine restarts it.
	member *raysim.Member

	// opMu serializes structural operations — weight swaps and rebuilds —
	// against each other. setW is the weight sink of the *current* service's
	// executor; a rebuild replaces both together.
	opMu sync.Mutex
	setW func(map[string]*tensor.Tensor) error
}

func newReplica(idx int) *Replica {
	return &Replica{idx: idx, wake: make(chan struct{}, 1)}
}

// call forwards one observation to the replica's current service.
func (r *Replica) call(obs *tensor.Tensor, deadline time.Time) (*tensor.Tensor, int64, error) {
	svc := r.svc.Load()
	if svc == nil {
		return nil, 0, errReplicaDown
	}
	return svc.ActVersion(obs, deadline)
}

// swap installs a weight snapshot between batches via the service barrier:
// the batcher is parked, no Runner call is in flight, the weights and the
// version stamp change atomically from the batcher's point of view.
func (r *Replica) swap(w map[string]*tensor.Tensor, version int64) error {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	return r.swapLocked(w, version)
}

// swapLocked is swap with opMu already held.
func (r *Replica) swapLocked(w map[string]*tensor.Tensor, version int64) error {
	svc := r.svc.Load()
	if svc == nil {
		return serve.ErrClosed
	}
	setW := r.setW
	return svc.Barrier(func() error {
		if setW != nil {
			if err := setW(w); err != nil {
				return err
			}
		}
		r.version.Store(version)
		return nil
	})
}

// Metrics returns the replica's service metrics (zero value when the
// replica is down).
func (r *Replica) serveMetrics() serve.Metrics {
	if svc := r.svc.Load(); svc != nil {
		return svc.Metrics()
	}
	return serve.Metrics{}
}
