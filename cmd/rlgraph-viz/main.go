// Command rlgraph-viz renders an agent's component graph and (for the static
// backend) its built dataflow graph as Graphviz DOT — the reproduction of
// the paper's TensorBoard visualizations (Appendix A), where RLgraph's
// per-component scopes and device assignments make dataflow legible.
//
// Usage:
//
//	rlgraph-viz -agent apex -out-components components.dot -out-dataflow dataflow.dot
//	dot -Tsvg components.dot > components.svg
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"rlgraph/internal/agents"
	"rlgraph/internal/envs"
	"rlgraph/internal/exec"
	"rlgraph/internal/viz"
)

func main() {
	agentType := flag.String("agent", "apex", "agent config: dqn, apex, impala")
	outComponents := flag.String("out-components", "components.dot", "component-graph DOT path")
	outDataflow := flag.String("out-dataflow", "dataflow.dot", "dataflow-graph DOT path (static backend)")
	flag.Parse()

	env := envs.NewPongSim(envs.PongConfig{Obs: envs.PongFeatures, Seed: 1, OpponentSkill: envs.DefaultPongOpponent})
	// Each agent type takes only its own keys.
	extra := `"memory": {"capacity": 1000}`
	if *agentType == "impala" {
		extra = `"rollout_len": 20`
	}
	cfg := fmt.Sprintf(`{
		"type": %q,
		"backend": "static",
		"network": [{"type": "dense", "units": 64, "activation": "relu"}],
		%s
	}`, *agentType, extra)
	agent, err := agents.FromConfig([]byte(cfg), env.StateSpace(), env.ActionSpace())
	if err != nil {
		log.Fatal(err)
	}
	report, err := agent.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("built:", report)

	var writeGraphs func() error
	switch a := agent.(type) {
	case *agents.DQN:
		writeGraphs = func() error {
			if err := writeDOT(*outComponents, func(f *os.File) error {
				return viz.WriteComponentGraph(f, a.Root())
			}); err != nil {
				return err
			}
			if st, ok := a.Executor().(*exec.StaticExecutor); ok {
				return writeDOT(*outDataflow, func(f *os.File) error {
					return viz.WriteDataflowGraph(f, st.Graph())
				})
			}
			return nil
		}
	case *agents.IMPALA:
		writeGraphs = func() error {
			if err := writeDOT(*outComponents, func(f *os.File) error {
				return viz.WriteComponentGraph(f, a.Root())
			}); err != nil {
				return err
			}
			if st, ok := a.Executor().(*exec.StaticExecutor); ok {
				return writeDOT(*outDataflow, func(f *os.File) error {
					return viz.WriteDataflowGraph(f, st.Graph())
				})
			}
			return nil
		}
	default:
		log.Fatalf("unsupported agent type %T", agent)
	}
	if err := writeGraphs(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s and %s\n", *outComponents, *outDataflow)
}

func writeDOT(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}
