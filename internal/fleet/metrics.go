package fleet

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rlgraph/internal/serve"
)

// counters is the router's hot-path accounting. Attempt-level identity:
//
//	Routed == Completed + RetriedAway + Misses + Failed   (at quiescence)
//
// Request-level identity (Completed/Misses/Failed are 1:1 with the final
// attempt that resolved the request, so they appear in both):
//
//	Requests == Completed + Misses + Failed + Unroutable
type counters struct {
	requests    atomic.Int64
	routed      atomic.Int64
	completed   atomic.Int64
	retriedAway atomic.Int64
	misses      atomic.Int64
	failed      atomic.Int64
	unroutable  atomic.Int64

	retries atomic.Int64

	ejections    atomic.Int64
	readmissions atomic.Int64
	downs        atomic.Int64
	deaths       atomic.Int64
	probes       atomic.Int64
	probeFails   atomic.Int64

	swaps      atomic.Int64
	swapSkips  atomic.Int64
	swapErrors atomic.Int64

	lat latRing

	// Per-version serving stats back the publisher's regression guard.
	vmu    sync.Mutex
	vstats map[int64]*versionStat
}

// latRing keeps the last fleetLatWindow completed-request latencies for
// quantile snapshots; recording is lock-free.
const fleetLatWindow = 2048

type latRing struct {
	buf [fleetLatWindow]atomic.Int64 // nanoseconds
	n   atomic.Int64
}

func (l *latRing) record(d time.Duration) {
	i := l.n.Add(1) - 1
	l.buf[i%fleetLatWindow].Store(int64(d))
}

func (l *latRing) quantile(q float64) time.Duration {
	n := l.n.Load()
	if n > fleetLatWindow {
		n = fleetLatWindow
	}
	if n == 0 {
		return 0
	}
	s := make([]int64, n)
	for i := int64(0); i < n; i++ {
		s[i] = l.buf[i].Load()
	}
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(q * float64(n-1))
	return time.Duration(s[i])
}

// versionStat aggregates serving quality per weight version.
type versionStat struct {
	attempts atomic.Int64
	errors   atomic.Int64
}

// maxTrackedVersions bounds the per-version map; oldest versions evict
// first. The guard only ever compares the newest version to its
// predecessor, so a short horizon suffices.
const maxTrackedVersions = 16

// recordVersion attributes one attempt outcome to the weight version that
// served it. Version 0 means "no stamp" (replica down, service closed
// before dispatch) and is not attributable to any snapshot.
func (rt *Router) recordVersion(v int64, failed bool) {
	if v == 0 {
		return
	}
	rt.m.vmu.Lock()
	if rt.m.vstats == nil {
		rt.m.vstats = make(map[int64]*versionStat)
	}
	st := rt.m.vstats[v]
	if st == nil {
		st = &versionStat{}
		rt.m.vstats[v] = st
		for len(rt.m.vstats) > maxTrackedVersions {
			oldest := int64(1<<62 - 1)
			for k := range rt.m.vstats {
				if k < oldest {
					oldest = k
				}
			}
			delete(rt.m.vstats, oldest)
		}
	}
	rt.m.vmu.Unlock()
	st.attempts.Add(1)
	if failed {
		st.errors.Add(1)
	}
}

// VersionStats is a snapshot of one weight version's serving record.
type VersionStats struct {
	Version  int64
	Attempts int64
	Errors   int64
}

// ErrRate is Errors/Attempts (0 when idle).
func (v VersionStats) ErrRate() float64 {
	if v.Attempts == 0 {
		return 0
	}
	return float64(v.Errors) / float64(v.Attempts)
}

// VersionStatsFor snapshots one version's stats.
func (rt *Router) VersionStatsFor(v int64) VersionStats {
	rt.m.vmu.Lock()
	st := rt.m.vstats[v]
	rt.m.vmu.Unlock()
	out := VersionStats{Version: v}
	if st != nil {
		out.Attempts = st.attempts.Load()
		out.Errors = st.errors.Load()
	}
	return out
}

// ReplicaMetrics is one replica's externally visible state.
type ReplicaMetrics struct {
	State       string
	Version     int64
	Inflight    int64
	ConsecFails int64
	Restarts    int64
	Serve       serve.Metrics
}

// Metrics is a point-in-time snapshot of the fleet counters.
type Metrics struct {
	Requests    int64
	Routed      int64
	Completed   int64
	RetriedAway int64
	Misses      int64
	Failed      int64
	Unroutable  int64

	Retries int64
	// Hedges is always 0: the fleet sends no hedged requests. The
	// regression benchmark still reports it (fleet.hedges).
	Hedges int64

	Ejections    int64
	Readmissions int64
	Downs        int64
	Restarts     int64
	Recoveries   int64
	Deaths       int64
	Probes       int64
	ProbeFails   int64

	Swaps      int64
	SwapSkips  int64
	SwapErrors int64

	P50, P95, P99 time.Duration

	Versions []VersionStats
	Replicas []ReplicaMetrics
}

// Metrics snapshots the fleet. Counter identities are exact only at
// quiescence (with requests in flight, an attempt may be routed but not yet
// classified).
func (rt *Router) Metrics() Metrics {
	m := Metrics{
		Requests:    rt.m.requests.Load(),
		Routed:      rt.m.routed.Load(),
		Completed:   rt.m.completed.Load(),
		RetriedAway: rt.m.retriedAway.Load(),
		Misses:      rt.m.misses.Load(),
		Failed:      rt.m.failed.Load(),
		Unroutable:  rt.m.unroutable.Load(),

		Retries: rt.m.retries.Load(),

		Ejections:    rt.m.ejections.Load(),
		Readmissions: rt.m.readmissions.Load(),
		Downs:        rt.m.downs.Load(),
		Recoveries:   rt.sup.Restarts(),
		Deaths:       rt.m.deaths.Load(),
		Probes:       rt.m.probes.Load(),
		ProbeFails:   rt.m.probeFails.Load(),

		Swaps:      rt.m.swaps.Load(),
		SwapSkips:  rt.m.swapSkips.Load(),
		SwapErrors: rt.m.swapErrors.Load(),

		P50: rt.m.lat.quantile(0.50),
		P95: rt.m.lat.quantile(0.95),
		P99: rt.m.lat.quantile(0.99),
	}
	rt.m.vmu.Lock()
	versions := make([]int64, 0, len(rt.m.vstats))
	for v := range rt.m.vstats {
		versions = append(versions, v)
	}
	rt.m.vmu.Unlock()
	sort.Slice(versions, func(a, b int) bool { return versions[a] < versions[b] })
	for _, v := range versions {
		m.Versions = append(m.Versions, rt.VersionStatsFor(v))
	}
	for _, r := range rt.replicas {
		m.Restarts += r.member.Attempts()
		m.Replicas = append(m.Replicas, ReplicaMetrics{
			State:       stateName(r.state.Load()),
			Version:     r.version.Load(),
			Inflight:    r.inflight.Load(),
			ConsecFails: r.consecFails.Load(),
			Restarts:    r.member.Attempts(),
			Serve:       r.serveMetrics(),
		})
	}
	return m
}
