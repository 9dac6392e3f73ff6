package rlgraph

// One benchmark per figure of the paper's evaluation (§5). Each benchmark
// drives the shared workload implementations in internal/benchkit at a quick
// scale and reports the figure's metric through testing.B custom metrics, so
// `go test -bench=. -benchmem` regenerates every series. For full laptop-
// scale sweeps with printed tables, run cmd/rlgraph-bench.

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/benchkit"
	"rlgraph/internal/envs"
	"rlgraph/internal/exec"
	"rlgraph/internal/tensor"
)

// BenchmarkFig5aBuildOverhead measures component-graph trace and build times
// for the prioritized-replay component and the full DQN architecture on both
// backends (paper Fig. 5a).
func BenchmarkFig5aBuildOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchkit.Fig5a()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.BuildSec*1000, "ms_build_"+short(r.Backend)+"_"+shortArch(r.Architecture))
		}
	}
}

func short(backend string) string {
	if backend == "static" {
		return "tf"
	}
	return "pt"
}

func shortArch(a string) string {
	if a == "DQN" {
		return "dqn"
	}
	return "mem"
}

// BenchmarkFig5bWorkerAct measures act throughput on vectorized pixel-Pong
// for static RLgraph, define-by-run RLgraph, and the hand-tuned eager actor
// (paper Fig. 5b).
func BenchmarkFig5bWorkerAct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchkit.Fig5b([]int{4}, 8)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			name := map[string]string{
				"TF RLgraph": "fps_tf", "PT RLgraph": "fps_pt", "PT hand-tuned": "fps_hand",
			}[r.Variant]
			b.ReportMetric(r.FPS, name)
		}
	}
}

// BenchmarkFig6ApexThroughput measures distributed Ape-X sample throughput
// for the RLgraph and RLlib-style execution plans (paper Fig. 6).
func BenchmarkFig6ApexThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchkit.Fig6([]int{2}, 500*time.Millisecond, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Kind == benchkit.KindRLgraph {
				b.ReportMetric(r.FPS, "fps_rlgraph")
			} else {
				b.ReportMetric(r.FPS, "fps_rllib")
			}
		}
	}
}

// BenchmarkFig7aSingleWorker measures one worker's task throughput for both
// plans (paper Fig. 7a).
func BenchmarkFig7aSingleWorker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchkit.Fig7a([]int{50}, []int{4}, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Kind == benchkit.KindRLgraph {
				b.ReportMetric(r.FPS, "fps_rlgraph")
			} else {
				b.ReportMetric(r.FPS, "fps_rllib")
			}
		}
	}
}

// BenchmarkFig7bLearningPong runs a short Ape-X learning race between the
// two plans and reports the final mean rewards (paper Fig. 7b). Full runs to
// the solved threshold are in cmd/rlgraph-bench -fig 7b.
func BenchmarkFig7bLearningPong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchkit.Fig7b(2, 2, 1000 /* don't stop early */, 3*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			last := -21.0
			if len(r.Timeline) > 0 {
				last = r.Timeline[len(r.Timeline)-1].MeanReward
			}
			if r.Kind == benchkit.KindRLgraph {
				b.ReportMetric(last, "reward_rlgraph")
			} else {
				b.ReportMetric(last, "reward_rllib")
			}
		}
	}
}

// BenchmarkFig8MultiGPU compares time-to-update-budget for 1 vs 2 simulated
// GPUs under the synchronous replica strategy (paper Fig. 8).
func BenchmarkFig8MultiGPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchkit.Fig8([]int{1, 2}, 2, 1000 /* unreachable */, 6)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.GPUs == 1 {
				b.ReportMetric(r.FinalVirtualSec, "vsec_1gpu")
			} else {
				b.ReportMetric(r.FinalVirtualSec, "vsec_2gpu")
			}
		}
	}
}

// BenchmarkFig9ImpalaThroughput measures IMPALA throughput for the RLgraph
// and DeepMind-reference execution plans on the DM-Lab stand-in (paper
// Fig. 9).
func BenchmarkFig9ImpalaThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchkit.Fig9([]int{2}, 500*time.Millisecond, 200)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Variant == "RLgraph IMPALA" {
				b.ReportMetric(r.FPS, "fps_rlgraph")
			} else {
				b.ReportMetric(r.FPS, "fps_dm")
			}
		}
	}
}

// BenchmarkAblationFastPath isolates define-by-run component-dispatch
// overhead via the contracted-call fast path (paper §5.1 edge contraction).
func BenchmarkAblationFastPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchkit.FastPathAblation(4, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].FPS, "fps_dispatch")
		b.ReportMetric(rows[1].FPS, "fps_fastpath")
	}
}

// BenchmarkDQNUpdateParallelism is the A/B behind keeping the parallel plan
// executor (EXPERIMENTS.md, PR 21 decision record): one Update per iteration
// on the two shipped training configs, with the session serial (par=1) and
// with two plan workers (par=2). It has no gate; it exists so the comparison
// reruns without patching the regression benchmark's driver.
func BenchmarkDQNUpdateParallelism(b *testing.B) {
	for _, w := range []struct {
		name, config string
		env          envs.Env
	}{
		{"dense", "configs/dqn_cartpole.json", envs.NewCartPole(1)},
		{"pixels", "configs/dueling_dqn_pixels.json", envs.NewPongSim(envs.PongConfig{
			Obs: envs.PongPixels, FrameSkip: 4, OpponentSkill: envs.DefaultPongOpponent, Seed: 1})},
	} {
		for _, par := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/par=%d", w.name, par), func(b *testing.B) {
				data, err := os.ReadFile(w.config)
				if err != nil {
					b.Fatal(err)
				}
				a, err := agents.FromConfig(data, w.env.StateSpace(), w.env.ActionSpace())
				if err != nil {
					b.Fatal(err)
				}
				agent := a.(*agents.DQN)
				if _, err := agent.Build(); err != nil {
					b.Fatal(err)
				}
				agent.Executor().(*exec.StaticExecutor).SetParallelism(par)

				// Two batches' worth of replay, drawn from the spaces: an update
				// costs the same whatever the transitions hold.
				const n = 64
				rng := rand.New(rand.NewSource(1))
				states := w.env.StateSpace().WithBatchRank()
				if err := agent.Observe(states.Sample(rng, n), w.env.ActionSpace().WithBatchRank().Sample(rng, n),
					tensor.RandNormal(rng, 0, 1, n), states.Sample(rng, n), tensor.New(n)); err != nil {
					b.Fatal(err)
				}
				if _, err := agent.Update(); err != nil { // warm-up: arena and plan scratch
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := agent.Update(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
			})
		}
	}
}

// BenchmarkKernelMatMul measures the single-core rate of the matmul kernel
// on the [m,k]x[k,n] products the regression benchmark's workloads actually
// issue: the three conv layers' forward panels, the pixel network's first
// dense layer, one backward-input and one backward-filter panel, and the
// dense workloads' hidden layers.
func BenchmarkKernelMatMul(b *testing.B) {
	defer tensor.SetKernelParallelism(tensor.KernelParallelism())
	tensor.SetKernelParallelism(1)
	rng := rand.New(rand.NewSource(1))
	for _, s := range [][3]int{
		{64, 64, 16}, {64, 256, 32}, {64, 288, 32}, {32, 1568, 256},
		{64, 32, 288}, {288, 64, 32}, {32, 64, 64}, {64, 64, 64},
	} {
		m, k, n := s[0], s[1], s[2]
		x, w := tensor.RandNormal(rng, 0, 1, m, k), tensor.RandNormal(rng, 0, 1, k, n)
		out := tensor.New(m, n)
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(out, x, w) // accumulates; the sums stay far from overflow
			}
			b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkKernelElementwise measures the single-core cost per element of the
// small-tensor kernels at the dense workloads' shapes: a 32x64 hidden
// activation, its ReLU backward, its bias gradient [32,64]→[64], an add of
// two of them, and one Adam step over a 64x64 layer and its bias.
func BenchmarkKernelElementwise(b *testing.B) {
	defer tensor.SetKernelParallelism(tensor.KernelParallelism())
	tensor.SetKernelParallelism(1)
	rng := rand.New(rand.NewSource(1))
	x, y := tensor.RandNormal(rng, 0, 1, 32, 64), tensor.RandNormal(rng, 0, 1, 32, 64)
	out, bias := tensor.New(32, 64), tensor.New(64)
	rule := tensor.UpdateRule{Kind: tensor.UpdateAdam, LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
	w, g := tensor.RandNormal(rng, 0, 1, 4160), tensor.RandNormal(rng, 0, 1, 4160)
	st := rule.NewState(4160)
	for _, k := range []struct {
		name string
		n    int
		run  func()
	}{
		{"ReluFlat/2048", 2048, func() { tensor.ReluFlat(out.Data(), x.Data()) }},
		{"ReluBackwardInto/32x64", 2048, func() { tensor.ReluBackwardInto(out, x, y) }},
		{"AddFlat/2048", 2048, func() { tensor.AddFlat(out.Data(), x.Data(), y.Data()) }},
		{"UnbroadcastInto/32x64-64", 2048, func() { tensor.UnbroadcastInto(bias, x) }},
		{"AdamApply/4160", 4160, func() { rule.Apply(w, st, g, 0) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k.n), "ns/elem")
		})
	}
}

// BenchmarkAblationSessionBatching isolates the cost of splitting an update
// into multiple executor calls versus the single batched call RLgraph emits.
func BenchmarkAblationSessionBatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchkit.SessionBatchingAblation(10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].FPS, "updates_batched")
		b.ReportMetric(rows[1].FPS, "updates_split")
	}
}
