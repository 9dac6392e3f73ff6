// Command rlgraph-bench regenerates the paper's evaluation figures at laptop
// scale, printing one series row per measured point. Select a figure with
// -fig (see -h for the values; "all" runs every one).
//
// Usage:
//
//	rlgraph-bench -fig 6
//	rlgraph-bench -fig all -quick
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"rlgraph/internal/benchkit"
)

// figures lists every -fig value with its runner, in the order "all" runs
// them. The help text and docs_test.go (root package) both read this list.
var figures = []struct {
	name string
	run  func(benchkit.Scale) error
}{
	{"5a", fig5a}, {"5b", fig5b}, {"6", fig6}, {"7a", fig7a}, {"7b", fig7b}, {"8", fig8}, {"9", fig9},
	{"chaos", chaos}, {"plan", figPlan}, {"kernels", figKernels}, {"conv", figConv},
	{"serve", figServe}, {"fleet", figFleet}, {"live", figLive},
}

func main() {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(names, ", ")+", all")
	quick := flag.Bool("quick", false, "use the fast smoke-test scale")
	flag.Parse()

	scale := benchkit.LaptopScale()
	if *quick {
		scale = benchkit.QuickScale()
	}

	ran := false
	for _, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		ran = true
		if err := f.run(scale); err != nil {
			log.Fatalf("figure %s: %v", f.name, err)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func fig5a(benchkit.Scale) error {
	header("Figure 5a — build overheads (trace + build, seconds)")
	rows, err := benchkit.Fig5a()
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("arch=%-20s backend=%-14s components=%-4d trace_s=%.4f build_s=%.4f\n",
			r.Architecture, r.Backend, r.Components, r.TraceSec, r.BuildSec)
	}
	return nil
}

func fig5b(s benchkit.Scale) error {
	header("Figure 5b — worker act throughput (env frames/s, pixel Pong)")
	rows, err := benchkit.Fig5b(s.ActEnvCounts, s.ActSteps)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("variant=%-14s envs=%-3d fps=%.0f\n", r.Variant, r.Envs, r.FPS)
	}
	return nil
}

func fig6(s benchkit.Scale) error {
	header("Figure 6 — distributed Ape-X sample throughput (env frames/s)")
	rows, err := benchkit.Fig6(s.ApexWorkers, s.ApexDuration, s.PongPoints)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("impl=%-8s workers=%-4d fps=%.0f updates=%d\n", r.Kind, r.Workers, r.FPS, r.Updates)
	}
	return nil
}

func fig7a(s benchkit.Scale) error {
	header("Figure 7a — single-worker task throughput (env frames/s)")
	rows, err := benchkit.Fig7a(s.TaskSizes, s.EnvCounts, s.PongPoints)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("impl=%-8s envs=%-3d task=%-5d fps=%.0f\n", r.Kind, r.Envs, r.TaskSize, r.FPS)
	}
	return nil
}

func fig7b(s benchkit.Scale) error {
	header("Figure 7b — Ape-X learning on Pong (mean worker reward vs seconds)")
	rows, err := benchkit.Fig7b(2, s.PongPoints, s.LearnTarget, s.LearnMaxTime)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("impl=%s\n", r.Kind)
		for _, p := range r.Timeline {
			fmt.Printf("  t=%-8.1f reward=%.2f\n", p.Seconds, p.MeanReward)
		}
		if r.SolvedSec >= 0 {
			fmt.Printf("  solved (reward >= %.1f) at t=%.1fs\n", s.LearnTarget, r.SolvedSec)
		} else {
			fmt.Printf("  not solved within budget\n")
		}
	}
	return nil
}

func fig8(s benchkit.Scale) error {
	header("Figure 8 — synchronous multi-GPU strategy (reward vs virtual seconds)")
	rows, err := benchkit.Fig8([]int{1, 2}, s.PongPoints, s.LearnTarget, 4000)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("gpus=%d\n", r.GPUs)
		for _, p := range r.Timeline {
			fmt.Printf("  vt=%-8.1f reward=%.2f\n", p.VirtualSec, p.MeanReward)
		}
		if r.SolvedVirtualSec >= 0 {
			fmt.Printf("  solved at virtual t=%.1fs\n", r.SolvedVirtualSec)
		} else {
			fmt.Printf("  not solved within update budget\n")
		}
	}
	return nil
}

func chaos(s benchkit.Scale) error {
	header("Chaos — Ape-X throughput under injected faults")
	rows, err := benchkit.Chaos(4, s.ApexDuration, s.PongPoints)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("scenario=%-14s fps=%-8.0f updates=%-6d restarts=%-3d failed=%-4d timed_out=%-4d degraded=%s\n",
			r.Scenario, r.FPS, r.Updates, r.Restarts, r.FailedCalls, r.TimedOutCalls, r.Degraded.Round(time.Millisecond))
	}
	return nil
}

// figPlan benchmarks the compiled-plan session executor against the legacy
// recursive evaluator and records the result (plus the >= 2x chain-speedup
// acceptance gate) in BENCH_plan.json.
func figPlan(s benchkit.Scale) error {
	header("Plan executor — compiled plans vs recursive session evaluation (ns per Run)")
	rows, err := benchkit.PlanBench(s.PlanChainLen, s.PlanIters)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("workload=%-14s baseline=%-12s nodes=%-6d par=%-2d baseline_ns=%-11.0f plan_ns=%-11.0f speedup=%.2fx\n",
			r.Workload, r.Baseline, r.Nodes, r.Parallelism, r.BaselineNsOp, r.PlanNsOp, r.Speedup)
	}

	const threshold = 2.0
	report := struct {
		Header     benchkit.BenchHeader       `json:"header"`
		Benchmark  string                     `json:"benchmark"`
		Workloads  []benchkit.PlanBenchResult `json:"workloads"`
		Acceptance struct {
			Benchmark string  `json:"benchmark"`
			Speedup   float64 `json:"speedup"`
			Threshold float64 `json:"threshold"`
			Pass      bool    `json:"pass"`
		} `json:"acceptance"`
	}{Header: benchkit.NewBenchHeader(), Benchmark: "BenchmarkPlanVsRecursive", Workloads: rows}
	for _, r := range rows {
		if r.Workload == "chain" {
			report.Acceptance.Benchmark = "chain (plan serial vs recursive)"
			report.Acceptance.Speedup = r.Speedup
			report.Acceptance.Threshold = threshold
			report.Acceptance.Pass = r.Speedup >= threshold
		}
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_plan.json", append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("acceptance: chain speedup %.2fx >= %.1fx: %v (wrote BENCH_plan.json)\n",
		report.Acceptance.Speedup, threshold, report.Acceptance.Pass)
	return nil
}

// figKernels benchmarks the tensor kernel layer (blocked/parallel matmul vs
// the seed naive kernel, fused elementwise kernels, dqn-update allocations
// with buffer reuse) and records the results in BENCH_kernels.json. The
// parallel-matmul gate (>= 3x at size >= 512) only applies on machines with
// GOMAXPROCS >= 4; on smaller boxes the gate falls back to the serial blocked
// kernel being no slower than the seed kernel, and the JSON records
// gomaxprocs so readers can tell which gate was applied.
func figKernels(s benchkit.Scale) error {
	header("Kernel layer — blocked/parallel matmul, fused elementwise, buffer reuse")
	rep, err := benchkit.KernelBench(s.KernelSizes, s.KernelMatMulIters, s.KernelFusedIters, s.KernelReuseIters)
	if err != nil {
		return err
	}
	for _, r := range rep.MatMul {
		fmt.Printf("matmul size=%-5d naive_ns=%-12.0f blocked_ns=%-12.0f parallel_ns=%-12.0f workers=%-2d blocked=%.2fx parallel=%.2fx\n",
			r.Size, r.NaiveNsOp, r.BlockedNsOp, r.ParallelNsOp, r.Workers, r.BlockedSpeedup, r.ParallelSpeedup)
	}
	for _, r := range rep.Fused {
		fmt.Printf("fused kernel=%-14s elems=%-7d composed_ns=%-10.0f fused_ns=%-10.0f speedup=%.2fx allocs_op=%.1f\n",
			r.Kernel, r.Elems, r.ComposedNsOp, r.FusedNsOp, r.Speedup, r.AllocsPerOpOn)
	}
	fmt.Printf("reuse workload=%s allocs_off=%.1f allocs_on=%.1f bytes_off=%.0f bytes_on=%.0f arena_hit_rate=%.2f\n",
		rep.Reuse.Workload, rep.Reuse.AllocsOffOp, rep.Reuse.AllocsOnOp,
		rep.Reuse.BytesOffOp, rep.Reuse.BytesOnOp, rep.Reuse.ArenaHitRate)

	type gate struct {
		Benchmark string  `json:"benchmark"`
		Speedup   float64 `json:"speedup,omitempty"`
		Threshold float64 `json:"threshold,omitempty"`
		Pass      bool    `json:"pass"`
		Note      string  `json:"note,omitempty"`
	}
	report := struct {
		Header benchkit.BenchHeader `json:"header"`
		*benchkit.KernelBenchReport
		Acceptance []gate `json:"acceptance"`
	}{Header: benchkit.NewBenchHeader(), KernelBenchReport: rep}

	// Gate 1: parallel matmul. The >= 3x target needs cores to scale across;
	// on a small box the honest gate is blocked-serial >= 1x vs the seed.
	var big *benchkit.KernelMatMulResult
	for i := range rep.MatMul {
		if rep.MatMul[i].Size >= 512 {
			big = &rep.MatMul[i]
			break
		}
	}
	if big == nil {
		big = &rep.MatMul[len(rep.MatMul)-1]
	}
	if rep.Gomaxprocs >= 4 {
		report.Acceptance = append(report.Acceptance, gate{
			Benchmark: fmt.Sprintf("matmul %dx%d parallel vs seed naive", big.Size, big.Size),
			Speedup:   big.ParallelSpeedup, Threshold: 3.0,
			Pass: big.ParallelSpeedup >= 3.0,
		})
	} else {
		report.Acceptance = append(report.Acceptance, gate{
			Benchmark: fmt.Sprintf("matmul %dx%d blocked serial vs seed naive", big.Size, big.Size),
			Speedup:   big.BlockedSpeedup, Threshold: 1.0,
			Pass: big.BlockedSpeedup >= 1.0,
			Note: fmt.Sprintf("gomaxprocs=%d < 4: the 3x parallel gate needs cores to scale across; gating on the serial blocked kernel instead", rep.Gomaxprocs),
		})
	}

	// Gate 2: buffer reuse must cut dqn-update allocations.
	report.Acceptance = append(report.Acceptance, gate{
		Benchmark: "dqn-update allocs/op with buffer reuse",
		Speedup:   rep.Reuse.AllocsOffOp / rep.Reuse.AllocsOnOp, Threshold: 1.0,
		Pass: rep.Reuse.AllocsOnOp < rep.Reuse.AllocsOffOp,
		Note: fmt.Sprintf("allocs_off=%.1f allocs_on=%.1f", rep.Reuse.AllocsOffOp, rep.Reuse.AllocsOnOp),
	})

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_kernels.json", append(buf, '\n'), 0o644); err != nil {
		return err
	}
	for _, a := range report.Acceptance {
		fmt.Printf("acceptance: %s: %.2fx >= %.1fx: %v\n", a.Benchmark, a.Speedup, a.Threshold, a.Pass)
	}
	fmt.Println("wrote BENCH_kernels.json")
	return nil
}

// figConv benchmarks the tiled conv pipeline (naive vs tiled-serial vs
// tiled-parallel forward timings, alloc deltas, scratch high-water mark) and
// the parallel executor's completion-order buffer reuse on dqn-update,
// recording the results in BENCH_conv.json. The peak-scratch gate (tiled
// scratch <= 1/4 of the full im2col materialization on the N=8, 32x32x16
// workload) always applies; the speedup gate is gomaxprocs-conditional like
// the kernel gates: parallel conv >= 2x vs the seed path with >= 4 cores,
// tiled-serial >= 1x otherwise.
func figConv(s benchkit.Scale) error {
	header("Conv pipeline — tiled arena-backed conv vs seed full-materialization")
	rep, err := benchkit.ConvBench(s.ConvIters, s.ConvReuseIters)
	if err != nil {
		return err
	}
	c := rep.Conv
	fmt.Printf("conv workload=%-26s naive_ns=%-12.0f tiled_ns=%-12.0f parallel_ns=%-12.0f workers=%-2d tiled=%.2fx parallel=%.2fx\n",
		c.Workload, c.NaiveNsOp, c.TiledNsOp, c.ParallelNsOp, c.Workers, c.TiledSpeedup, c.ParallelSpeedup)
	fmt.Printf("conv bytes/op naive=%-12.0f tiled=%-12.0f scratch peak=%d full_im2col=%d ratio=%.3f\n",
		c.NaiveBytesOp, c.TiledBytesOp, c.PeakScratchElems, c.FullIm2ColElems, c.ScratchRatio)
	fmt.Printf("reuse workload=%-30s par=%-2d allocs_off=%.1f allocs_on=%.1f bytes_off=%.0f bytes_on=%.0f arena_hit_rate=%.2f\n",
		rep.Reuse.Workload, rep.Reuse.Parallelism, rep.Reuse.AllocsOffOp, rep.Reuse.AllocsOnOp,
		rep.Reuse.BytesOffOp, rep.Reuse.BytesOnOp, rep.Reuse.ArenaHitRate)

	type gate struct {
		Benchmark string  `json:"benchmark"`
		Value     float64 `json:"value,omitempty"`
		Threshold float64 `json:"threshold,omitempty"`
		Pass      bool    `json:"pass"`
		Note      string  `json:"note,omitempty"`
	}
	report := struct {
		Header benchkit.BenchHeader `json:"header"`
		*benchkit.ConvBenchReport
		Acceptance []gate `json:"acceptance"`
	}{Header: benchkit.NewBenchHeader(), ConvBenchReport: rep}

	// Gate 1 (unconditional): tiled conv peak scratch <= 1/4 of the full
	// im2col materialization — structural, enforced by convPanelFor's cap.
	report.Acceptance = append(report.Acceptance, gate{
		Benchmark: "conv peak scratch vs full im2col (N=8, 32x32x16)",
		Value:     c.ScratchRatio, Threshold: 0.25,
		Pass: c.PeakScratchElems*4 <= c.FullIm2ColElems,
		Note: fmt.Sprintf("peak=%d elems, full=%d elems", c.PeakScratchElems, c.FullIm2ColElems),
	})

	// Gate 2 (gomaxprocs-conditional): speedup vs the seed path.
	if report.Header.Gomaxprocs >= 4 {
		report.Acceptance = append(report.Acceptance, gate{
			Benchmark: "conv parallel tiled vs seed naive",
			Value:     c.ParallelSpeedup, Threshold: 2.0,
			Pass: c.ParallelSpeedup >= 2.0,
		})
	} else {
		report.Acceptance = append(report.Acceptance, gate{
			Benchmark: "conv tiled serial vs seed naive",
			Value:     c.TiledSpeedup, Threshold: 1.0,
			Pass: c.TiledSpeedup >= 1.0,
			Note: fmt.Sprintf("gomaxprocs=%d < 4: gating on the serial tiled pipeline instead of the parallel fan-out", report.Header.Gomaxprocs),
		})
	}

	// Gate 3: completion-order release must cut parallel dqn-update allocs.
	report.Acceptance = append(report.Acceptance, gate{
		Benchmark: "parallel dqn-update allocs/op with completion-order reuse",
		Value:     rep.Reuse.AllocsOffOp / rep.Reuse.AllocsOnOp, Threshold: 1.0,
		Pass: rep.Reuse.AllocsOnOp < rep.Reuse.AllocsOffOp,
		Note: fmt.Sprintf("allocs_off=%.1f allocs_on=%.1f", rep.Reuse.AllocsOffOp, rep.Reuse.AllocsOnOp),
	})

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_conv.json", append(buf, '\n'), 0o644); err != nil {
		return err
	}
	for _, a := range report.Acceptance {
		fmt.Printf("acceptance: %s: %.3f (threshold %.2f): %v\n", a.Benchmark, a.Value, a.Threshold, a.Pass)
	}
	fmt.Println("wrote BENCH_conv.json")
	return nil
}

// figServe measures closed-loop inference serving with and without the
// serve package's dynamic micro-batching on the same static DQN, recording
// throughput, latency quantiles, and the batched-throughput gate
// (benchkit.ServeGateThreshold) in BENCH_serve.json. The cmd/rlgraph-serve driver exposes the same workload
// with tunable knobs.
func figServe(s benchkit.Scale) error {
	header("Serving — micro-batched vs unbatched closed-loop inference")
	rep, err := benchkit.ServeBench(s.ServeClients, s.ServeDuration, s.ServeMaxBatch)
	if err != nil {
		return err
	}
	for _, m := range []benchkit.ServeModeResult{rep.Unbatched, rep.Batched} {
		fmt.Printf("mode=%-10s clients=%-3d rps=%-10.0f p50_ms=%-8.3f p95_ms=%-8.3f p99_ms=%-8.3f mean_batch=%-6.1f arena_hit=%.2f\n",
			m.Mode, m.Clients, m.Throughput, m.P50Ms, m.P95Ms, m.P99Ms, m.MeanBatch, m.ArenaHitRate)
	}
	gate, err := benchkit.WriteServeJSON(rep, "BENCH_serve.json")
	if err != nil {
		return err
	}
	fmt.Printf("acceptance: %s: %.2fx >= %.1fx at %d clients: %v (wrote BENCH_serve.json)\n",
		gate.Benchmark, gate.Speedup, gate.Threshold, gate.Clients, gate.Pass)
	return nil
}

// figFleet measures the sharded serving fleet (internal/fleet): closed-loop
// throughput scaling across replica counts, request p99 under continuous
// weight hot-swaps vs a swap-free baseline, and availability through a
// replica kill. Results and acceptance gates land in BENCH_fleet.json; the
// 1.7x scaling gate applies only with GOMAXPROCS >= 4 (replicas need cores
// to scale across), falling back to the kill-availability gate on smaller
// machines — the same convention as the kernel and conv benches.
func figFleet(s benchkit.Scale) error {
	header("Serving fleet — replica scaling, hot-swap pause, kill availability")
	rep, err := benchkit.FleetBench(s.FleetClients, s.FleetDuration, s.ServeMaxBatch,
		s.FleetReplicas, s.FleetSwapEvery)
	if err != nil {
		return err
	}
	for _, p := range rep.Scaling {
		fmt.Printf("scaling replicas=%-2d rps=%-10.0f p50_ms=%-8.3f p99_ms=%-8.3f errors=%d\n",
			p.Replicas, p.Throughput, p.P50Ms, p.P99Ms, p.Errors)
	}
	fmt.Printf("swap rollouts=%-4d roll_p99_ms=%-8.3f req_p99_ms no_swap=%-8.3f swapping=%-8.3f errors=%d\n",
		rep.Swap.Swaps, rep.Swap.RollP99Ms, rep.Swap.ReqP99NoSwapMs, rep.Swap.ReqP99SwapMs, rep.Swap.Errors)
	fmt.Printf("kill requests=%-7d completed=%-7d failed=%-3d unroutable=%-3d restarts=%-2d availability=%.4f identity_exact=%v\n",
		rep.Kill.Requests, rep.Kill.Completed, rep.Kill.Failed, rep.Kill.Unroutable,
		rep.Kill.Restarts, rep.Kill.Availability, rep.Kill.IdentityExact)
	gates, err := benchkit.WriteFleetJSON(rep, "BENCH_fleet.json")
	if err != nil {
		return err
	}
	for _, g := range gates {
		fmt.Printf("acceptance: %s: %.3f vs %.3f: %v\n", g.Benchmark, g.Value, g.Threshold, g.Pass)
	}
	fmt.Println("wrote BENCH_fleet.json")
	return nil
}

// figLive runs the live training→serving pipeline: an Ape-X trainer on
// GridWorld publishes weight snapshots to the parameter server as it learns,
// a fleet.Publisher rolls each version across the serving fleet, and greedy
// eval clients record serving reward per weight version the whole time.
// Results and acceptance gates (≥5 served versions, non-decreasing reward
// trend, ≥N−1 availability through every swap, exactly-once identities,
// zero rollbacks) land in BENCH_live.json.
func figLive(s benchkit.Scale) error {
	header("Live loop — trainer → parameter server → fleet hot-swap, eval reward per version")
	rep, err := benchkit.LiveBench(benchkit.LiveConfig{
		Duration:     s.LiveDuration,
		Replicas:     s.LiveReplicas,
		Clients:      s.LiveClients,
		PublishEvery: s.LivePublishEvery,
	})
	if err != nil {
		return err
	}
	fmt.Printf("trainer updates=%-6d fps=%-8.0f published=%-4d ps_version=%d\n",
		rep.TrainerUpdates, rep.TrainerFPS, rep.TrainerPublished, rep.PSVersion)
	fmt.Printf("publisher rollouts=%-4d applied=v%-4d rollbacks=%-2d fleet_swaps=%d\n",
		rep.Rollouts, rep.Applied, rep.Rollbacks, rep.Swaps)
	for _, v := range rep.Versions {
		fmt.Printf("  version=%-5d episodes=%-5d mean_reward=%.3f\n", v.Version, v.Episodes, v.MeanReward)
	}
	fmt.Printf("eval episodes=%-6d errors=%-3d served_versions=%-4d baseline=%.3f first_third=%.3f last_third=%.3f\n",
		rep.Episodes, rep.EvalErrors, rep.ServedVersions, rep.BaselineMean, rep.FirstThirdMean, rep.LastThirdMean)
	fmt.Printf("fleet min_healthy=%d/%d identity_exact=%v\n", rep.MinHealthy, rep.Replicas, rep.IdentityExact)
	gates, err := benchkit.WriteLiveJSON(rep, "BENCH_live.json")
	if err != nil {
		return err
	}
	for _, g := range gates {
		fmt.Printf("acceptance: %s: %.3f vs %.3f: %v\n", g.Benchmark, g.Value, g.Threshold, g.Pass)
	}
	fmt.Println("wrote BENCH_live.json")
	return nil
}

func fig9(s benchkit.Scale) error {
	header("Figure 9 — IMPALA throughput on the DM-Lab stand-in (env frames/s)")
	rows, err := benchkit.Fig9(s.ImpalaActors, s.ImpalaDuration, 2000)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("impl=%-16s actors=%-4d fps=%.0f updates=%d\n", r.Variant, r.Actors, r.FPS, r.Updates)
	}
	return nil
}
