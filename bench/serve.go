package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/fleet"
	"rlgraph/internal/serve"
	"rlgraph/internal/tensor"
)

const (
	poolSize      = 1024
	closedCallers = 64
	// openRate is the open-loop arrival rate. At any rate tried, 5-10 % of
	// requests fall into a slow mode of 1-4 ms that starts on a 4 ms grid
	// (README.md, Findings). The 0.9 quantile is steady only while it stays
	// clear of that mode: its ten-run spread was 8 % and 16 % at 15 000 req/s,
	// where the mode begins at the 0.92 quantile, and 4 % at 7 500, where it
	// begins at 0.94.
	openRate  = 7500
	lowRate   = 2000
	swapEvery = 100 * time.Millisecond
	lateLimit = time.Millisecond
	// maxLateShare is the share of arrivals issued more than lateLimit late
	// beyond which an open-loop phase is abandoned: the generator, not the
	// fleet, was then the bottleneck. Latency counts from the due time, so a
	// late arrival is still timed honestly; up to this share the median and
	// the 0.9 quantile are unaffected.
	maxLateShare = 0.05
	serveWarm    = time.Second
	// queueDepth and openDeadline are sized so that a stall of the whole
	// machine for tens of milliseconds, which this kind of sandbox does
	// suffer, shows as tail latency and not as shed or missed requests.
	// Closed-loop callers set no deadline, like an environment waiting for
	// its action: serve arms a timer per request with a deadline and never
	// stops it, which costs the closed loop 15 % of its throughput at 50 ms
	// and 30 % at 2 s.
	queueDepth   = 8192
	openDeadline = 500 * time.Millisecond
)

// fleetRig is a running fleet with the observation pool it is asked about
// and the table of right answers.
type fleetRig struct {
	rt   *fleet.Router
	pool []*tensor.Tensor
	// weights are the two snapshots the swap phase alternates; table[k][i]
	// is the greedy action for pool[i] under weights[k], computed by a
	// standalone define-by-run agent one observation at a time. Odd version
	// stamps serve weights[0], even ones weights[1].
	weights [2]map[string]*tensor.Tensor
	table   [2][]float64
	version int64
	t0      time.Time // origin of phase and runner-clock timestamps
	// smoke runs are too short for the late-arrival share to mean anything.
	smoke bool

	// recording switches the runner clocks of a traced rig on and off.
	recording atomic.Bool
	clockMu   sync.Mutex
	clocks    []*runnerClock
}

// batchRec is one Runner call as seen by the wrapper inside the BuildFunc.
type batchRec struct {
	start, end int64
	rows       int
}

// runnerClock times the Runner of one replica, one record per micro-batch.
// Only the replica's batcher goroutine appends; readers take the lock.
type runnerClock struct {
	mu   sync.Mutex
	recs []batchRec
}

func snapshotIndex(version int64) int { return int((version + 1) % 2) }

func newFleetRig(o opts, warm time.Duration) (*fleetRig, error) {
	seed, traced := o.seed, o.trace
	r := &fleetRig{smoke: o.smoke}
	env := featurePong(seed*1000 + 500)
	rng := rand.New(rand.NewSource(seed ^ 0x706f6f6c))
	obs := env.Reset()
	for len(r.pool) < poolSize {
		r.pool = append(r.pool, obs.Clone())
		var done bool
		if obs, _, done = env.Step(rng.Intn(env.ActionSpace().N)); done {
			obs = env.Reset()
		}
	}

	for k := range r.weights {
		oracle, _, err := buildDQN(apexConfig, "define-by-run", agentSeed+int64(k), env)
		if err != nil {
			return nil, err
		}
		r.weights[k] = oracle.GetWeights()
		r.table[k] = make([]float64, poolSize)
		for i, o := range r.pool {
			a, err := oracle.GetActions(o.Reshape(append([]int{1}, o.Shape()...)...), false)
			if err != nil {
				return nil, fmt.Errorf("reference action %d: %w", i, err)
			}
			r.table[k][i] = a.Data()[0]
		}
	}

	r.t0 = time.Now()
	build := fleet.DQNBuild(func(int) (*agents.DQN, error) {
		a, _, err := buildDQN(apexConfig, "static", agentSeed, env)
		return a, err
	}, false)
	if traced {
		inner := build
		build = func(i int) (serve.Runner, func(map[string]*tensor.Tensor) error, error) {
			run, setW, err := inner(i)
			if err != nil {
				return nil, nil, err
			}
			c := &runnerClock{recs: make([]batchRec, 0, 1<<16)}
			r.clockMu.Lock()
			r.clocks = append(r.clocks, c)
			r.clockMu.Unlock()
			return func(b *tensor.Tensor) (*tensor.Tensor, error) {
				if !r.recording.Load() {
					return run(b)
				}
				start := int64(time.Since(r.t0))
				out, err := run(b)
				c.mu.Lock()
				c.recs = append(c.recs, batchRec{start: start, end: int64(time.Since(r.t0)), rows: b.Dim(0)})
				c.mu.Unlock()
				return out, err
			}, setW, nil
		}
	}
	var err error
	r.rt, err = fleet.New(fleet.Config{
		Replicas: 2, Build: build, Seed: seed,
		Serve: serve.Config{MaxBatch: 32, FlushLatency: 200 * time.Microsecond, QueueDepth: queueDepth, Elem: env.StateSpace()},
	})
	if err != nil {
		return nil, err
	}
	if err := r.swap(); err != nil {
		r.shutdown()
		return nil, err
	}
	r.closed(warm, seed)
	return r, nil
}

// swap installs the next snapshot fleet-wide.
func (r *fleetRig) swap() error {
	r.version++
	return r.rt.SwapAll(r.weights[snapshotIndex(r.version)], r.version)
}

func (r *fleetRig) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return r.rt.Shutdown(ctx)
}

// verdict is how one request ended.
type verdict uint8

const (
	answered verdict = iota // the right action, in time
	refused                 // error, shed or deadline miss
	wrong                   // an action that is not the table's
)

// ask sends pool[i] and checks the reply against the table entry for the
// version that served it.
func (r *fleetRig) ask(i int, deadline time.Time) verdict {
	out, version, err := r.rt.ActVersion(r.pool[i], deadline)
	switch {
	case err != nil:
		return refused
	case out.Size() != 1 || out.Data()[0] != r.table[snapshotIndex(version)][i]:
		return wrong
	}
	return answered
}

// phase is what one load phase sent and got back.
type phase struct {
	// failed counts every request that was not answered; wrong is the part
	// of it that got an action other than the table's.
	sent, failed, wrong int64
	startNs             int64 // since the rig's t0
	wall                float64
	// latMs is the latency of every open-loop request that got the right
	// answer, in milliseconds from the instant it was due, which is latDue.
	latMs    []float64
	latDue   []int64
	dueNs    []int64 // open loop: due and completion times, for the span file
	doneNs   []int64
	maxLate  time.Duration
	late     int64
	rollsMs  []float64
	swapErrs int64
	blockRps []float64 // closed loop: right answers per second in each block
}

func (p *phase) rps() float64 { return float64(p.sent-p.failed) / p.wall }

// caller is one closed-loop client's tally, padded to its own cache line so
// that the block sampler reads it without slowing the others down.
type caller struct {
	answered atomic.Int64
	_        [56]byte
}

// closed runs closedCallers closed-loop callers for d: RL clients are closed
// loop, an environment waits for its action.
func (r *fleetRig) closed(d time.Duration, seed int64) *phase {
	var sent, failed, wrongs atomic.Int64
	var wg sync.WaitGroup
	callers := make([]caller, closedCallers)
	start := time.Now()
	p := &phase{startNs: int64(start.Sub(r.t0))}
	stop := start.Add(d)
	for c := range callers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*4096 + int64(c)))
			var s, f, w int64
			for time.Now().Before(stop) {
				s++
				switch r.ask(rng.Intn(poolSize), time.Time{}) {
				case answered:
					callers[c].answered.Add(1)
				case refused:
					f++
				case wrong:
					f++
					w++
				}
			}
			sent.Add(s)
			failed.Add(f)
			wrongs.Add(w)
		}(c)
	}
	// Right answers per second, block by block.
	var done int64
	at := start
	for b := 1; b <= blocks; b++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(b) / blocks)))
		var now int64
		for c := range callers {
			now += callers[c].answered.Load()
		}
		t := time.Now()
		p.blockRps = append(p.blockRps, float64(now-done)/t.Sub(at).Seconds())
		done, at = now, t
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	p.sent, p.failed, p.wrong = sent.Load(), failed.Load(), wrongs.Load()
	return p
}

// open sends Poisson arrivals at rate per second for d from one pacer
// goroutine, each request its own goroutine, and times each from the instant
// it was due. With swaps it alternates the two weight snapshots every
// swapEvery meanwhile.
func (r *fleetRig) open(rate float64, d time.Duration, swaps bool, seed int64) (*phase, error) {
	rng := rand.New(rand.NewSource(seed))
	var due []int64
	var idx []int32
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		due = append(due, int64(t*1e9))
		idx = append(idx, int32(rng.Intn(poolSize)))
	}
	n := len(due)
	p := &phase{sent: int64(n), dueNs: due, doneNs: make([]int64, n)}
	got := make([]verdict, n)

	stopSwaps := make(chan struct{})
	swapsDone := make(chan struct{})
	go func() {
		defer close(swapsDone)
		if !swaps {
			return
		}
		tick := time.NewTicker(swapEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopSwaps:
				return
			case <-tick.C:
				t0 := time.Now()
				if err := r.swap(); err != nil {
					p.swapErrs++
				}
				p.rollsMs = append(p.rollsMs, float64(time.Since(t0))/1e6)
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(n)
	start := time.Now()
	p.startNs = int64(start.Sub(r.t0))
	for i := 0; i < n; i++ {
		at := start.Add(time.Duration(due[i]))
		for {
			wait := time.Until(at)
			if wait <= 0 {
				if -wait > p.maxLate {
					p.maxLate = -wait
				}
				if -wait > lateLimit {
					p.late++
				}
				break
			}
			// A sleeping goroutine wakes up to a millisecond late, so the
			// pacer only sleeps when the next arrival is far off and yields
			// in a loop otherwise.
			if wait > 3*time.Millisecond {
				time.Sleep(wait - 2*time.Millisecond)
			} else {
				runtime.Gosched()
			}
		}
		go func(i int) {
			defer wg.Done()
			got[i] = r.ask(int(idx[i]), at.Add(openDeadline))
			p.doneNs[i] = int64(time.Since(start))
		}(i)
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	close(stopSwaps)
	<-swapsDone

	p.latMs = make([]float64, 0, n)
	for i, g := range got {
		switch g {
		case answered:
			p.latMs = append(p.latMs, float64(p.doneNs[i]-due[i])/1e6)
			p.latDue = append(p.latDue, due[i])
		case wrong:
			p.wrong++
			p.failed++
		default:
			p.failed++
		}
	}
	if share := float64(p.late) / float64(n); share > maxLateShare && !r.smoke {
		return nil, fmt.Errorf("load generator fell behind: %.2f%% of %d arrivals were issued more than %v late (max %v); "+
			"the open-loop phase is invalid on this machine at %g req/s", 100*share, n, lateLimit, p.maxLate, rate)
	}
	return p, nil
}

// quiesced checks the router's request identity once no caller is waiting.
func (r *fleetRig) quiesced(out *outcome) fleet.Metrics {
	m := r.rt.Metrics()
	out.check("Requests equals Completed+Misses+Failed+Unroutable at quiescence",
		m.Requests == m.Completed+m.Misses+m.Failed+m.Unroutable)
	return m
}

func serveFleet(o opts) (*outcome, error) {
	out := newOutcome()
	total := time.Duration(o.seconds * float64(time.Second))
	warm := serveWarm
	if o.smoke {
		warm /= 20
	}

	rig, setup, err := measureSetup(o,
		func() (*fleetRig, error) { return newFleetRig(o, warm) },
		func(r *fleetRig) { r.shutdown() })
	if err != nil {
		return nil, err
	}
	defer rig.shutdown()
	out.values["setup_s"] = setup
	if !o.trace {
		cl := rig.closed(total*2/5, o.seed)
		op, err := rig.open(openRate, total*3/5, true, o.seed)
		if err != nil {
			return nil, err
		}
		rig.tally(out, cl, op)
		out.values["items_per_s"] = median(cl.blockRps)
		out.values["op_ms_p50"], out.values["op_ms_p90"] = blockedSamples(op.latDue, op.latMs, int64(op.wall*1e9))
		out.samples["op_ms_p50"], out.samples["op_ms_p90"] = len(op.latMs), len(op.latMs)
		rig.quiesced(out)
		return out, rig.shutdown()
	}
	return out, serveTraced(o, out, rig, total)
}

// serveTraced is the traced pass: the closed loop with the runner clocks
// off, then on (their difference is the tracing overhead), then the open
// loop without swaps, with swaps, and at a low rate.
func serveTraced(o opts, out *outcome, rig *fleetRig, total time.Duration) error {
	v := out.values
	var mem memMeter
	mem.start()
	base := rig.closed(total*3/20, o.seed)
	mem.stop()
	mem.report(out, base.sent)

	rig.recording.Store(true)
	cl := rig.closed(total*3/20, o.seed+1)
	plain, err := rig.open(openRate, total*3/10, false, o.seed)
	if err != nil {
		return err
	}
	swapped, err := rig.open(openRate, total*3/10, true, o.seed+1)
	if err != nil {
		return err
	}
	low, err := rig.open(lowRate, total/10, false, o.seed+2)
	if err != nil {
		return err
	}
	rig.recording.Store(false)
	all := rig.batches()
	closedBatches, openBatches := during(all, cl), during(all, plain)
	rig.tally(out, base, cl, plain, swapped, low)
	v["fleet.served_rps"] = cl.rps()
	v["trace.overhead_pct"] = 100 * (base.rps() - cl.rps()) / base.rps()
	v["fleet.noswap_latency_p50_ms"] = quantile(plain.latMs, 0.5)
	v["fleet.noswap_latency_p95_ms"] = quantile(plain.latMs, 0.95)
	v["fleet.swap_latency_p50_ms"] = quantile(swapped.latMs, 0.5)
	v["fleet.swap_latency_p95_ms"] = quantile(swapped.latMs, 0.95)
	v["fleet.latency_p99_ms"] = quantile(swapped.latMs, 0.99)
	v["fleet.latency_p999_ms"] = quantile(swapped.latMs, 0.999)
	v["fleet.swap_roll_ms_p50"] = median(swapped.rollsMs)
	v["serve.lowrate_p50_ms"] = quantile(low.latMs, 0.5)
	v["serve.lowrate_p95_ms"] = quantile(low.latMs, 0.95)
	v["loadgen.max_late_ms"] = float64(max(plain.maxLate, swapped.maxLate, low.maxLate)) / 1e6
	v["loadgen.late_share"] = float64(plain.late+swapped.late+low.late) / float64(plain.sent+swapped.sent+low.sent)

	rows := func(bs []batchRec) (n, busyNs float64) {
		for _, b := range bs {
			n += float64(b.rows)
			busyNs += float64(b.end - b.start)
		}
		return n, busyNs
	}
	closedRows, _ := rows(closedBatches)
	openRows, openBusy := rows(openBatches)
	v["serve.mean_batch_closed"] = ratio(closedRows, float64(len(closedBatches)))
	v["serve.mean_batch_open"] = ratio(openRows, float64(len(openBatches)))
	v["serve.batches_per_s"] = float64(len(openBatches)) / plain.wall
	v["exec.runner_busy_share"] = openBusy / 1e9 / plain.wall / float64(rig.rt.Replicas())
	runnerUs := make([]float64, len(openBatches))
	weighted := 0.0 // sum over rows of the runner time of the batch that carried them
	for i, b := range openBatches {
		runnerUs[i] = float64(b.end-b.start) / 1e3
		weighted += runnerUs[i] * float64(b.rows)
	}
	v["exec.runner_us_p50"] = median(runnerUs)
	v["serve.wait_ms_mean"] = mean(plain.latMs) - ratio(weighted, openRows)/1e3

	m := rig.quiesced(out)
	lo, hi := int64(1<<62), int64(0)
	for _, rep := range m.Replicas {
		s := rep.Serve
		v["serve.shed"] += float64(s.Shed)
		v["serve.evicted"] += float64(s.Evicted)
		v["serve.deadline_misses"] += float64(s.DeadlineMisses)
		v["serve.late_results"] += float64(s.LateResults)
		lo, hi = min(lo, s.Completed), max(hi, s.Completed)
	}
	v["fleet.route_imbalance"] = ratio(float64(hi), float64(lo))
	v["fleet.retries"] = float64(m.Retries)
	v["fleet.hedges"] = float64(m.Hedges)
	v["fleet.unroutable"] = float64(m.Unroutable)
	v["fleet.ejections"] = float64(m.Ejections)
	v["fleet.restarts"] = float64(m.Restarts)
	v["fleet.swaps"] = float64(m.Swaps)

	_, rep, err := buildDQN(apexConfig, "static", agentSeed, featurePong(0))
	if err != nil {
		return err
	}
	reportBuild(out, rep)

	// The span file: one span per open-loop request of the swap-free phase
	// (from its due time) and one per runner batch. A batch cannot be
	// linked to the requests it carried from outside the program.
	tr := newTracer()
	for i, due := range plain.dueNs {
		tr.add(kRequest, due, plain.doneNs[i], -1, int64(i))
	}
	for i, b := range all {
		tr.add(kRunner, b.start, b.end, -1, int64(i))
	}
	if err := tr.write(o.outDir, "serve_fleet", o.hdr); err != nil {
		return err
	}
	return rig.shutdown()
}

// tally counts the phases' requests as the run's operations and requires
// that no reply differed from the table.
func (r *fleetRig) tally(out *outcome, phases ...*phase) {
	var wrongs int64
	for _, p := range phases {
		out.attempted += p.sent
		out.failed += p.failed + p.swapErrs
		wrongs += p.wrong
	}
	out.check("every reply equals the (observation, version) table entry", wrongs == 0)
}

// during selects the runner records that started inside phase p.
func during(all []batchRec, p *phase) []batchRec {
	var out []batchRec
	end := p.startNs + int64(p.wall*1e9)
	for _, b := range all {
		if b.start >= p.startNs && b.start < end {
			out = append(out, b)
		}
	}
	return out
}

// batches returns every runner record so far, replica by replica.
func (r *fleetRig) batches() []batchRec {
	r.clockMu.Lock()
	clocks := append([]*runnerClock(nil), r.clocks...)
	r.clockMu.Unlock()
	var out []batchRec
	for _, c := range clocks {
		c.mu.Lock()
		out = append(out, c.recs...)
		c.mu.Unlock()
	}
	return out
}
