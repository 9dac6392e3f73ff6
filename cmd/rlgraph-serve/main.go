// Command rlgraph-serve is the closed-loop load driver for the serving
// layer: it builds a static dueling DQN, drives N concurrent clients against
// it with and without dynamic micro-batching, prints both modes' throughput
// and latency quantiles, and writes BENCH_serve.json with the acceptance
// gate (batched >= 2x unbatched at >= 8 clients).
//
// With -fleet N it instead drives the sharded serving fleet (internal/fleet):
// N health-checked replicas behind the failover router, measured through a
// replica-scaling sweep, a continuous weight hot-swap window, and a
// kill-a-replica availability run, written to BENCH_fleet.json.
//
// Usage:
//
//	rlgraph-serve                      # 32 clients, 2s per mode, batch 64
//	rlgraph-serve -clients 16 -duration 5s
//	rlgraph-serve -quick               # smoke-test window
//	rlgraph-serve -fleet 3             # 1..3-replica fleet measurements
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"rlgraph/internal/benchkit"
)

func main() {
	clients := flag.Int("clients", 32, "concurrent closed-loop clients per mode")
	duration := flag.Duration("duration", 2*time.Second, "measurement window per mode")
	batch := flag.Int("batch", 64, "micro-batcher max batch size")
	fleetN := flag.Int("fleet", 0, "serve through a replica fleet of this size (0 = single-service mode)")
	swapEvery := flag.Duration("swap-every", 20*time.Millisecond, "hot-swap cadence during the fleet swap window")
	quick := flag.Bool("quick", false, "shrink the window to a smoke test")
	out := flag.String("out", "", "report path (default BENCH_serve.json or BENCH_fleet.json)")
	flag.Parse()

	if *quick {
		*duration = 500 * time.Millisecond
	}
	if *fleetN > 0 {
		runFleet(*clients, *duration, *batch, *fleetN, *swapEvery, *out)
		return
	}
	if *out == "" {
		*out = "BENCH_serve.json"
	}

	fmt.Printf("serving gridworld8 dueling-dqn dense8x8: %d clients, %v per mode, batch<=%d\n",
		*clients, *duration, *batch)
	rep, err := benchkit.ServeBench(*clients, *duration, *batch)
	if err != nil {
		log.Fatalf("serve bench: %v", err)
	}
	for _, m := range []benchkit.ServeModeResult{rep.Unbatched, rep.Batched} {
		fmt.Printf("mode=%-10s clients=%-3d requests=%-8d errors=%-4d rps=%-10.0f p50_ms=%-8.3f p95_ms=%-8.3f p99_ms=%-8.3f",
			m.Mode, m.Clients, m.Requests, m.Errors, m.Throughput, m.P50Ms, m.P95Ms, m.P99Ms)
		if m.Mode == "batched" {
			fmt.Printf(" batches=%-6d mean_batch=%-6.1f arena_hit=%.2f", m.Batches, m.MeanBatch, m.ArenaHitRate)
		}
		fmt.Println()
	}

	gate, err := benchkit.WriteServeJSON(rep, *out)
	if err != nil {
		log.Fatalf("write %s: %v", *out, err)
	}
	fmt.Printf("acceptance: batched/unbatched throughput %.2fx (threshold %.1fx, %d clients): pass=%v (wrote %s)\n",
		gate.Speedup, gate.Threshold, gate.Clients, gate.Pass, *out)
	if !gate.Pass {
		os.Exit(1)
	}
}

// runFleet drives the replica-fleet measurements: scaling 1..n, the
// hot-swap window, and the kill-a-replica availability run.
func runFleet(clients int, duration time.Duration, batch int, n int, swapEvery time.Duration, out string) {
	if out == "" {
		out = "BENCH_fleet.json"
	}
	replicaCounts := make([]int, 0, n)
	for i := 1; i <= n; i++ {
		replicaCounts = append(replicaCounts, i)
	}
	fmt.Printf("fleet serving gridworld8 dueling-dqn dense8x8: %d clients, %v per point, replicas 1..%d, swap every %v\n",
		clients, duration, n, swapEvery)
	rep, err := benchkit.FleetBench(clients, duration, batch, replicaCounts, swapEvery)
	if err != nil {
		log.Fatalf("fleet bench: %v", err)
	}
	for _, p := range rep.Scaling {
		fmt.Printf("scaling replicas=%-2d requests=%-8d rps=%-10.0f p50_ms=%-8.3f p99_ms=%-8.3f errors=%d\n",
			p.Replicas, p.Requests, p.Throughput, p.P50Ms, p.P99Ms, p.Errors)
	}
	fmt.Printf("swap rollouts=%-4d roll_p99_ms=%-8.3f req_p99_ms no_swap=%-8.3f swapping=%-8.3f errors=%d\n",
		rep.Swap.Swaps, rep.Swap.RollP99Ms, rep.Swap.ReqP99NoSwapMs, rep.Swap.ReqP99SwapMs, rep.Swap.Errors)
	fmt.Printf("kill requests=%-7d completed=%-7d failed=%-3d unroutable=%-3d restarts=%-2d availability=%.4f identity_exact=%v\n",
		rep.Kill.Requests, rep.Kill.Completed, rep.Kill.Failed, rep.Kill.Unroutable,
		rep.Kill.Restarts, rep.Kill.Availability, rep.Kill.IdentityExact)

	gates, err := benchkit.WriteFleetJSON(rep, out)
	if err != nil {
		log.Fatalf("write %s: %v", out, err)
	}
	pass := true
	for _, g := range gates {
		fmt.Printf("acceptance: %s: %.3f vs %.3f: %v\n", g.Benchmark, g.Value, g.Threshold, g.Pass)
		pass = pass && g.Pass
	}
	fmt.Printf("wrote %s\n", out)
	if !pass {
		os.Exit(1)
	}
}
