package main

import (
	"math"
	"strings"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/distexec"
	"rlgraph/internal/envs"
	"rlgraph/internal/exec"
	"rlgraph/internal/execution"
	"rlgraph/internal/raysim"
	"rlgraph/internal/tensor"
)

const (
	apexConfig = "apex_pong.json"
	apexEnvs   = 4
	// A task is 10 steps of the 4 environments, under a millisecond of work.
	// With the 50 steps of ISSUE 12 a task took 4.5 ms, longer than the slices
	// in which the host's scheduler shares a core, so whatever else ran on
	// the host stretched most tasks: in ten runs beside a synthetic neighbour
	// the median period spread by 22 % and its 0.9 quantile by 29 %, against
	// 5 % and 14 % with tasks this short (README.md, Findings).
	apexTaskSize  = 10
	apexFrameSkip = 4
	apexBatch     = 64
	apexShardCap  = 20000
	// framesPerTask is what one Sample call adds to ApexResult.Frames.
	framesPerTask = apexTaskSize * apexEnvs * apexFrameSkip
)

func featurePong(seed int64) envs.Env {
	return envs.NewPongSim(envs.PongConfig{
		Obs: envs.PongFeatures, FrameSkip: apexFrameSkip, PointsToWin: 5, Seed: seed,
		OpponentSkill: envs.DefaultPongOpponent,
	})
}

// taskClock wraps the worker handed to NewApex. Untraced it only stamps the
// start of every task, which gives the worker's task period; traced it also
// stamps the end, which gives the time inside Sample.
type taskClock struct {
	distexec.SampleWorker
	t0     time.Time
	traced bool
	starts []int64
	ends   []int64
}

func (c *taskClock) Sample(n int) (*execution.Batch, error) {
	c.starts = append(c.starts, int64(time.Since(c.t0)))
	b, err := c.SampleWorker.Sample(n)
	if c.traced {
		c.ends = append(c.ends, int64(time.Since(c.t0)))
	}
	return b, err
}

// timedEnv accumulates the time a traced worker spends inside one
// environment. The worker's actor goroutine is the only caller.
type timedEnv struct {
	envs.Env
	ns *int64
}

func (e timedEnv) Reset() *tensor.Tensor {
	t0 := time.Now()
	obs := e.Env.Reset()
	*e.ns += int64(time.Since(t0))
	return obs
}

func (e timedEnv) Step(a int) (*tensor.Tensor, float64, bool) {
	t0 := time.Now()
	obs, r, done := e.Env.Step(a)
	*e.ns += int64(time.Since(t0))
	return obs, r, done
}

// apexRun is one executor with its learner and the clock around its worker.
type apexRun struct {
	ex      *distexec.ApexExecutor
	learner *agents.DQN
	report  *exec.BuildReport // of the learner
	clock   *taskClock
	envNs   int64
	made    int // workers built; more than one means a supervised restart
}

func newApexRun(seed int64, traced bool) (*apexRun, error) {
	r := &apexRun{}
	learner, rep, err := buildDQN(apexConfig, "static", agentSeed, featurePong(0))
	if err != nil {
		return nil, err
	}
	r.learner, r.report = learner, rep
	cfg := distexec.ApexConfig{
		NumWorkers: 1, TaskSize: apexTaskSize, NumReplayShards: 2, ReplayCapacity: apexShardCap,
		BatchSize: apexBatch,
		// An actor call costs what the program spends on it and nothing is
		// added: raysim makes a simulated delay by parking the receiving actor
		// on a timer, and with the 50 µs of ISSUE 12 the worker was a fifth
		// slower and its median task period spread by 12 % over ten runs on a
		// quiet host, against 1.3 % without (README.md, Findings). The link is
		// infinitely fast, not absent, so that BytesMoved is still counted.
		Cluster: raysim.Config{BytesPerSecond: math.Inf(1)},
	}
	r.ex, err = distexec.NewApex(cfg, learner, featurePong(0).StateSpace(), func(i int) (distexec.SampleWorker, error) {
		r.made++
		agent, _, err := buildDQN(apexConfig, "static", agentSeed+1+int64(i), featurePong(0))
		if err != nil {
			return nil, err
		}
		list := make([]envs.Env, apexEnvs)
		for k := range list {
			list[k] = featurePong(seed*1000 + int64(10*i+k))
			if traced {
				list[k] = timedEnv{Env: list[k], ns: &r.envNs}
			}
		}
		w := execution.NewWorker(agent, envs.NewVectorEnv(list...), execution.WorkerConfig{
			NStep: 3, Gamma: 0.99, ComputePriorities: true, FramesPerStep: apexFrameSkip,
		})
		r.clock = &taskClock{SampleWorker: w, t0: time.Now(), traced: traced}
		return r.clock, nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

func apexDist(o opts) (*outcome, error) {
	out := newOutcome()
	total := time.Duration(o.seconds * float64(time.Second))

	// Run has no warm-up of its own, so the replay ramp is inside the timed
	// region.
	build := func() (*apexRun, error) { return newApexRun(o.seed, false) }
	run, err := build()
	if err != nil {
		return nil, err
	}

	if !o.trace {
		res, err := run.ex.Run(distexec.RunOptions{Duration: total})
		if err != nil {
			return nil, err
		}
		// The learner's updates are only known as a total; the worker's task
		// period is blocked like every other op.
		starts := run.clock.starts
		out.values["items_per_s"] = float64(res.Updates) * apexBatch / res.Elapsed.Seconds()
		_, out.values["op_ms_p50"], out.values["op_ms_p90"] = blockedSeries(starts)
		out.samples["op_ms_p50"], out.samples["op_ms_p90"] = len(starts)-1, len(starts)-1
		apexChecks(out, run, res)

		// Set-up is agent construction and executor wiring. It is repeated
		// after the timed region, not before it: raysim keeps the state of a
		// stopped actor reachable for the life of the process, and the 25
		// set-ups left 500 MB live, a heap the run then worked in.
		stop := func(r *apexRun) { r.ex.Cluster().StopAll() }
		last, setup, err := measureSetup(o, build, stop)
		if err != nil {
			return nil, err
		}
		stop(last)
		out.values["setup_s"] = setup
		return out, nil
	}

	// Untraced run first: the baseline for trace.overhead_pct and for the
	// allocator's work per task.
	var mem memMeter
	mem.start()
	base, err := run.ex.Run(distexec.RunOptions{Duration: total / 2})
	if err != nil {
		return nil, err
	}
	mem.stop()
	mem.report(out, int64(len(run.clock.starts)))
	apexChecks(out, run, base)

	run, err = newApexRun(o.seed, true)
	if err != nil {
		return nil, err
	}
	reportBuild(out, run.report)
	res, err := run.ex.Run(distexec.RunOptions{Duration: total / 2})
	if err != nil {
		return nil, err
	}
	apexChecks(out, run, res)
	out.values["trace.overhead_pct"] = 100 * (base.FPS - res.FPS) / base.FPS
	apexLayers(out, run, res)

	tr := newTracer()
	c := run.clock
	for i, end := range c.ends {
		tr.add(kSample, c.starts[i], end, -1, int64(i))
	}
	return out, tr.write(o.outDir, "apex_dist", o.hdr)
}

// apexChecks counts operations and checks the run's identities.
func apexChecks(out *outcome, run *apexRun, res *distexec.ApexResult) {
	out.attempted += res.ActorCalls
	out.failed += res.FailedCalls + res.TimedOutCalls
	out.check("no supervised restarts", res.Restarts == 0 && run.made == 1)
	out.check("ApexResult.Updates equals learner.Updates", res.Updates == run.learner.Updates())
	out.check("frames are whole tasks", res.Frames > 0 && res.Frames%framesPerTask == 0)
}

// apexLayers derives the per-layer metrics of the traced run.
func apexLayers(out *outcome, run *apexRun, res *distexec.ApexResult) {
	v := out.values
	c := run.clock
	wall := res.Elapsed.Seconds()
	kframes := float64(res.Frames) / 1e3

	busy := 0.0
	sampleMs := make([]float64, len(c.ends))
	for i, end := range c.ends {
		sampleMs[i] = float64(end-c.starts[i]) / 1e6
		busy += sampleMs[i] / 1e3
	}
	v["envs.frames_per_s"] = res.FPS
	v["envs.step_share_of_sample"] = ratio(float64(run.envNs)/1e9, busy)
	v["envs.step_us"] = ratio(float64(run.envNs)/1e3, float64(len(c.ends)*apexTaskSize*apexEnvs))
	v["execution.sample_busy_share"] = busy / wall
	v["execution.sample_ms_p50"] = median(sampleMs)
	v["execution.tasks"] = float64(len(c.ends))

	cl := run.ex.Cluster()
	v["raysim.calls_per_kframe"] = ratio(float64(res.ActorCalls), kframes)
	v["raysim.bytes_per_frame"] = ratio(float64(cl.BytesMoved), float64(res.Frames))
	var workerWait, replayWait time.Duration
	var workerCalls, replayCalls int64
	hwm := 0
	for name, m := range cl.ActorMetricsSnapshot() {
		if strings.HasPrefix(name, "replay-") {
			replayWait += m.QueueWaitTotal
			replayCalls += m.CallsProcessed
		} else {
			workerWait += m.QueueWaitTotal
			workerCalls += m.CallsProcessed
		}
		if m.MailboxHWM > hwm {
			hwm = m.MailboxHWM
		}
	}
	v["raysim.queue_wait_us_mean.worker"] = ratio(float64(workerWait)/1e3, float64(workerCalls))
	v["raysim.queue_wait_us_mean.replay"] = ratio(float64(replayWait)/1e3, float64(replayCalls))
	v["raysim.mailbox_hwm"] = float64(hwm)

	v["distexec.updates_per_s"] = float64(res.Updates) / wall
	v["distexec.updates_per_kframe"] = ratio(float64(res.Updates), kframes)
	v["distexec.failed_calls"] = float64(res.FailedCalls)
	v["distexec.timed_out_calls"] = float64(res.TimedOutCalls)
	v["distexec.restarts"] = float64(res.Restarts)
	v["memories.shard_calls"] = float64(replayCalls)
}
