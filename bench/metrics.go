package main

import (
	"runtime"
	"time"
)

// metricDef declares one metric of the benchmark. BENCHMARK.json repeats
// these tables; bench_test.go checks that the two agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports every
// metric; README.md says what an "item" and an "op" are on each, and why
// every bound is the largest the driver allows.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "items_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer is measured on the traced pass, from the benchmark's own
// wrappers and the snapshot structs the layers already export. A workload
// that never enters a layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "envs.frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "envs.step_share", Unit: "ratio", Better: "lower"},
	{Name: "envs.step_us", Unit: "us", Better: "lower"},
	{Name: "envs.step_share_of_sample", Unit: "ratio", Better: "lower"},
	{Name: "agents.act_share", Unit: "ratio", Better: "lower"},
	{Name: "agents.act_us", Unit: "us", Better: "lower"},
	{Name: "agents.observe_share", Unit: "ratio", Better: "lower"},
	{Name: "agents.observe_us", Unit: "us", Better: "lower"},
	{Name: "agents.update_share", Unit: "ratio", Better: "lower"},
	{Name: "agents.update_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "driver.assemble_share", Unit: "ratio", Better: "lower"},
	{Name: "driver.unaccounted_share", Unit: "ratio", Better: "lower"},
	{Name: "graph.runs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "graph.nodes_per_update", Unit: "count", Better: "lower"},
	{Name: "graph.ns_per_node_update", Unit: "ns", Better: "lower"},
	{Name: "graph.arena_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "tensor.update_mflop", Unit: "MFLOP", Better: "lower"},
	{Name: "tensor.update_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "exec.build_trace_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.build_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.graph_nodes", Unit: "count", Better: "lower"},
	{Name: "component.count", Unit: "count", Better: "lower"},
	{Name: "execution.sample_busy_share", Unit: "ratio", Better: "higher"},
	{Name: "execution.sample_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "execution.tasks", Unit: "count", Better: "higher"},
	{Name: "raysim.calls_per_kframe", Unit: "count", Better: "lower"},
	{Name: "raysim.bytes_per_frame", Unit: "B", Better: "lower"},
	{Name: "raysim.queue_wait_us_mean.worker", Unit: "us", Better: "lower"},
	{Name: "raysim.queue_wait_us_mean.replay", Unit: "us", Better: "lower"},
	{Name: "raysim.mailbox_hwm", Unit: "count", Better: "lower"},
	{Name: "distexec.updates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "distexec.updates_per_kframe", Unit: "count", Better: "higher"},
	{Name: "distexec.failed_calls", Unit: "count", Better: "lower"},
	{Name: "distexec.timed_out_calls", Unit: "count", Better: "lower"},
	{Name: "distexec.restarts", Unit: "count", Better: "lower"},
	{Name: "memories.shard_calls", Unit: "count", Better: "higher"},
	{Name: "memories.size_final", Unit: "count", Better: "higher"},
	{Name: "exec.runner_us_p50", Unit: "us", Better: "lower"},
	{Name: "exec.runner_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.mean_batch_open", Unit: "count", Better: "higher"},
	{Name: "serve.mean_batch_closed", Unit: "count", Better: "higher"},
	{Name: "serve.batches_per_s", Unit: "1/s", Better: "lower"},
	{Name: "serve.wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.evicted", Unit: "count", Better: "lower"},
	{Name: "serve.deadline_misses", Unit: "count", Better: "lower"},
	{Name: "serve.late_results", Unit: "count", Better: "lower"},
	{Name: "serve.lowrate_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.lowrate_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.served_rps", Unit: "1/s", Better: "higher"},
	{Name: "fleet.noswap_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.noswap_latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.swap_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.swap_latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.latency_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.retries", Unit: "count", Better: "lower"},
	{Name: "fleet.hedges", Unit: "count", Better: "lower"},
	{Name: "fleet.unroutable", Unit: "count", Better: "lower"},
	{Name: "fleet.ejections", Unit: "count", Better: "lower"},
	{Name: "fleet.restarts", Unit: "count", Better: "lower"},
	{Name: "fleet.route_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "fleet.swaps", Unit: "count", Better: "higher"},
	{Name: "fleet.swap_roll_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "loadgen.max_late_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(opts) (*outcome, error)
}

var workloads = []workloadDef{
	{Name: "train_dense", run: trainDense,
		Why: "CartPole DQN with a 2x64 MLP: tensors are tiny, so plan dispatch, arena traffic, replay and optimizer passes weigh as much as the matmuls"},
	{Name: "train_pixels", run: trainPixels,
		Why: "84x84 Pong dueling DQN with 3 conv layers: conv and matmul kernels do almost all the work; dispatch is negligible"},
	{Name: "apex_dist", run: apexDist,
		Why: "Ape-X on raysim with 1 worker, 2 replay shards, 1 learner: batched sampling, actor calls, sharded replay, weight sync"},
	{Name: "serve_fleet", run: serveFleet,
		Why: "2-replica fleet serving a tiny model, closed loop then open-loop Poisson arrivals beside weight swaps: queue wait and routing"},
}

// opts are the inputs of one run of one workload.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	// smoke shrinks set-up (one repetition, short warm-up) so that the test
	// finishes in seconds; numbers from a smoke run are not comparable.
	smoke  bool
	outDir string
	hdr    header
}

// measureSetup builds a workload's whole state several times and returns
// the last state with the median build time, which is setup_s: at least
// three builds, and more (up to 25) while they take under a second in all,
// so that a set-up of milliseconds is not reported from three samples.
// discard releases a state that will not be used. Traced and smoke runs
// build once.
func measureSetup[T any](o opts, build func() (T, error), discard func(T)) (T, float64, error) {
	var state T
	var secs []float64
	begin := time.Now()
	for {
		if len(secs) > 0 && discard != nil {
			discard(state)
		}
		t0 := time.Now()
		var err error
		if state, err = build(); err != nil {
			return state, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		n := len(secs)
		if o.smoke || o.trace || n == 25 || (n >= 3 && time.Since(begin) > time.Second) {
			return state, median(secs), nil
		}
	}
}

// warm scales a fixed warm-up count down for smoke runs.
func (o opts) warm(n int) int {
	if o.smoke {
		return n/20 + 1
	}
	return n
}

// outcome is what one run of one workload produced.
type outcome struct {
	// attempted and failed count program operations; notes name the
	// correctness checks that ran and any that did not hold.
	attempted, failed int64
	correct           bool
	checks            []string
	values            map[string]float64
	// samples holds the sample count behind each percentile metric.
	samples map[string]int
}

func newOutcome() *outcome {
	return &outcome{correct: true, values: map[string]float64{}, samples: map[string]int{}}
}

// check records one correctness check; a failed one makes the run incorrect.
func (o *outcome) check(name string, ok bool) {
	if ok {
		o.checks = append(o.checks, name+": ok")
		return
	}
	o.checks = append(o.checks, name+": FAILED")
	o.correct = false
}

// memMeter sums the allocator's work over the untraced stretches of a run.
type memMeter struct {
	before                  runtime.MemStats
	mallocs, bytes, pauseNs uint64
	heapSys                 uint64
}

func (m *memMeter) start() { runtime.ReadMemStats(&m.before) }

func (m *memMeter) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.mallocs += after.Mallocs - m.before.Mallocs
	m.bytes += after.TotalAlloc - m.before.TotalAlloc
	m.pauseNs += after.PauseTotalNs - m.before.PauseTotalNs
	m.heapSys = after.HeapSys
}

// report fills the runtime.* metrics for ops operations.
func (m *memMeter) report(out *outcome, ops int64) {
	n := float64(ops)
	out.values["runtime.allocs_per_op"] = ratio(float64(m.mallocs), n)
	out.values["runtime.bytes_per_op"] = ratio(float64(m.bytes), n)
	out.values["runtime.gc_pause_ms"] = float64(m.pauseNs) / 1e6
	out.values["runtime.heap_peak_mb"] = float64(m.heapSys) / (1 << 20)
}
