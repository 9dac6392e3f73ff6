// Command rlgraph-bench regenerates the paper's evaluation figures at laptop
// scale, printing one series row per measured point. Select a figure with
// -fig (see -h for the values; "all" runs every one). It exits 1 when a
// figure errors or one of its acceptance gates fails, 2 on an unknown -fig.
//
// Usage:
//
//	rlgraph-bench -fig 6
//	rlgraph-bench -fig all -quick
package main

import (
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
	{"chaos", chaos}, {"live", figLive},
}

// stamp is the header of this run, shared by stdout and BENCH_live.json.
var stamp benchkit.BenchHeader

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

	// The first output line names the code and machine measured, so a
	// redirected run (bench_figures.txt) is stamped like BENCH_live.json.
	stamp = benchkit.NewBenchHeader()
	fmt.Println(stamp)

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

// figLive runs the live training→serving pipeline: an Ape-X trainer on
// GridWorld publishes weight snapshots to the parameter server as it learns,
// a fleet.Publisher rolls each version across the serving fleet, and greedy
// eval clients record serving reward per weight version the whole time.
// Results and acceptance gates (≥5 served versions, ≥N−1 availability
// through every swap, exactly-once identities, zero rollbacks) land in
// BENCH_live.json; a failed gate fails the run.
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
	fmt.Printf("eval episodes=%-6d errors=%-3d served_versions=%d\n",
		rep.Episodes, rep.EvalErrors, rep.ServedVersions)
	fmt.Printf("fleet min_healthy=%d/%d identity_exact=%v\n", rep.MinHealthy, rep.Replicas, rep.IdentityExact)
	gates := benchkit.LiveAcceptance(rep)
	if err := benchkit.WriteJSON("BENCH_live.json", stamp, rep, gates); err != nil {
		return err
	}
	for _, g := range gates {
		fmt.Printf("acceptance: %s: %.3f vs %.3f: %v\n", g.Name, g.Value, g.Threshold, g.Pass)
	}
	fmt.Println("wrote BENCH_live.json")
	return benchkit.FailedGates(gates)
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
