package serve

import (
	"sort"
	"sync/atomic"
	"time"
)

// BatchHistBounds are the inclusive upper bounds of the batch-size
// histogram buckets in Metrics.BatchHist; the final bucket is unbounded.
var BatchHistBounds = []int{1, 2, 4, 8, 16, 32, 64}

// batchHistBuckets = len(BatchHistBounds) + 1 (the unbounded tail).
const batchHistBuckets = 8

// latRingSize bounds the latency reservoir: quantiles are computed over the
// most recent latRingSize completed requests.
const latRingSize = 4096

// counters is the service's internal atomic metric state.
type counters struct {
	admitted  atomic.Int64
	completed atomic.Int64
	shed      atomic.Int64
	invalid   atomic.Int64
	evicted   atomic.Int64
	misses    atomic.Int64
	late      atomic.Int64
	failed    atomic.Int64
	batches   atomic.Int64
	batchRows atomic.Int64
	batchHist [batchHistBuckets]atomic.Int64
	lat       latRing
}

func (c *counters) recordBatchSize(n int) {
	for i, b := range BatchHistBounds {
		if n <= b {
			c.batchHist[i].Add(1)
			return
		}
	}
	c.batchHist[len(BatchHistBounds)].Add(1)
}

// latRing is a lock-free ring of recent delivery latencies (nanoseconds).
type latRing struct {
	buf [latRingSize]atomic.Int64
	n   atomic.Int64
}

func (l *latRing) record(d time.Duration) {
	i := l.n.Add(1) - 1
	l.buf[i%latRingSize].Store(int64(d))
}

// snapshot copies and sorts the ring's current contents.
func (l *latRing) snapshot() []int64 {
	n := l.n.Load()
	if n > latRingSize {
		n = latRingSize
	}
	out := make([]int64, n)
	for i := int64(0); i < n; i++ {
		out[i] = l.buf[i].Load()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func quantile(sorted []int64, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return time.Duration(sorted[i])
}

// Metrics is a point-in-time snapshot of the service's serving health: the
// contract a deployment's dashboards scrape. Counters are cumulative since
// New.
type Metrics struct {
	// Admitted counts requests accepted into the queue; Completed the
	// requests whose result reached a still-waiting caller.
	Admitted, Completed int64
	// Shed counts queue-full rejections, Invalid failed observation checks
	// (neither is admitted).
	Shed, Invalid int64
	// Evicted counts expired requests removed by the pre-assembly sweep;
	// DeadlineMisses every request resolved as a deadline failure
	// (evictions included); LateResults batch rows computed for callers
	// that had already moved on; Failed rows resolved with a runner or
	// shutdown error.
	Evicted, DeadlineMisses, LateResults, Failed int64
	// Batches counts Runner invocations; MeanBatch is rows per batch, and
	// BatchHist the batch-size histogram over BatchHistBounds (last bucket
	// unbounded).
	Batches   int64
	MeanBatch float64
	BatchHist []int64
	// QueueDepth is the instantaneous admission-queue length.
	QueueDepth int
	// QPS is Completed divided by Uptime.
	QPS    float64
	Uptime time.Duration
	// P50/P95/P99 are delivery-latency quantiles (enqueue to scatter) over
	// the most recent completed requests.
	P50, P95, P99 time.Duration
}

// Metrics snapshots the service counters.
func (s *Service) Metrics() Metrics {
	m := Metrics{
		Admitted:       s.m.admitted.Load(),
		Completed:      s.m.completed.Load(),
		Shed:           s.m.shed.Load(),
		Invalid:        s.m.invalid.Load(),
		Evicted:        s.m.evicted.Load(),
		DeadlineMisses: s.m.misses.Load(),
		LateResults:    s.m.late.Load(),
		Failed:         s.m.failed.Load(),
		Batches:        s.m.batches.Load(),
		QueueDepth:     s.QueueDepth(),
		Uptime:         time.Since(s.start),
	}
	if m.Batches > 0 {
		m.MeanBatch = float64(s.m.batchRows.Load()) / float64(m.Batches)
	}
	if sec := m.Uptime.Seconds(); sec > 0 {
		m.QPS = float64(m.Completed) / sec
	}
	m.BatchHist = make([]int64, len(s.m.batchHist))
	for i := range s.m.batchHist {
		m.BatchHist[i] = s.m.batchHist[i].Load()
	}
	lat := s.m.lat.snapshot()
	m.P50 = quantile(lat, 0.50)
	m.P95 = quantile(lat, 0.95)
	m.P99 = quantile(lat, 0.99)
	return m
}
