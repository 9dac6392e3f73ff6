// Package rlgraph is a Go reproduction of "RLgraph: Modular Computation
// Graphs for Deep Reinforcement Learning" (Schaarschmidt, Mika, Fricke,
// Yoneki — MLSys 2019).
//
// The library separates three concerns that RL implementations usually
// entangle:
//
//   - logical component composition (internal/component: components, API
//     methods, graph functions),
//   - backend graph definition (internal/graph: dataflow graphs that a
//     session runs later under the static backend, or that evaluate each
//     node as it is added under define-by-run; built by internal/exec
//     through the three-phase build), and
//   - local and distributed execution (internal/exec graph executors,
//     internal/distexec Ape-X and IMPALA executors on the internal/raysim
//     actor engine).
//
// Pre-built agents (internal/agents) expose the high-level agent API; the
// benchmark harness (bench_test.go, internal/benchkit, cmd/rlgraph-bench)
// regenerates every figure of the paper's evaluation. See README.md for the
// tour, DESIGN.md for the system inventory and substitutions, and
// EXPERIMENTS.md for paper-vs-measured results.
package rlgraph
