// Sub-graph testing (paper §3.3, Listing 1): build a Policy component — with
// sub-components for the network and action selection — in isolation from
// declared state/action spaces, then push sampled example data through its
// API methods on both backends. This is the mechanism that makes every
// RLgraph component individually testable. The second half runs the same
// test on components fed a container space (paper §3.2).
//
//	go run ./examples/subgraph_testing
package main

import (
	"fmt"
	"log"
	"math/rand"

	"rlgraph/internal/component"
	"rlgraph/internal/components/misc"
	"rlgraph/internal/components/nn"
	"rlgraph/internal/components/policy"
	"rlgraph/internal/exec"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

func main() {
	// State and action layouts, exactly as an environment would define them.
	stateSpace := spaces.NewFloatBox(64).WithBatchRank()
	actionSpace := spaces.NewIntBox(4)

	// A policy with network + exploration sub-components.
	net := nn.MustNetwork("net", []nn.LayerSpec{
		{Type: "dense", Units: 32, Activation: "tanh"},
		{Type: "dense", Units: 4}, // action head: one Q value per action
	}, 42)
	exploration := policy.NewEpsilonGreedy("eps", 0.3, 0.3, 1, 7)
	pol := policy.New("policy", net.Component, actionSpace, exploration)

	rng := rand.New(rand.NewSource(1))
	for _, backendName := range exec.Backends() {
		// Construct the sub-graph from spaces; placeholders/variables are
		// generated automatically.
		test, err := exec.NewComponentTest(backendName, pol.Component, exec.InputSpaces{
			"q_values":   {stateSpace},
			"act_greedy": {stateSpace},
			"act":        {stateSpace},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] %s\n", backendName, test.Report())

		// Test with any inputs sampled from the input space.
		q, err := test.TestWithSamples("q_values", rng, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] q_values shape: %v\n", backendName, q[0].Shape())

		actions, err := test.TestWithSamples("act", rng, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] epsilon-greedy actions: %v\n", backendName, actions[0].Data())

		greedy, err := test.TestWithSamples("act_greedy", rng, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] greedy actions:         %v\n\n", backendName, greedy[0].Data())

		// A fresh component tree is needed per build (components are bound
		// to one backend's variables after building).
		net = nn.MustNetwork("net", []nn.LayerSpec{
			{Type: "dense", Units: 32, Activation: "tanh"},
			{Type: "dense", Units: 4},
		}, 42)
		exploration = policy.NewEpsilonGreedy("eps", 0.3, 0.3, 1, 7)
		pol = policy.New("policy", net.Component, actionSpace, exploration)
	}
	containerSubgraph(rng)
}

// containerSubgraph tests a splitter and a merger fed a Dict observation
// space. A container record travels between components as one flat tensor
// (leaves flattened and concatenated in sorted-key order); the splitter
// recovers each leaf with its shape and the merger inverts the split.
func containerSubgraph(rng *rand.Rand) {
	obs := spaces.NewDict(map[string]spaces.Space{
		"camera":   spaces.NewFloatBox(2, 2).WithBatchRank(),
		"health":   spaces.NewFloatBox(1).WithBatchRank(),
		"position": spaces.NewFloatBox(3).WithBatchRank(),
	})
	width := 0
	for _, leaf := range spaces.Flatten(obs) {
		width += tensor.NumElems(leaf.Space.Shape())
	}
	record := spaces.NewFloatBox(width).WithBatchRank()
	fmt.Printf("observation space %s travels as %s\n", obs, record)

	for _, backendName := range exec.Backends() {
		split := misc.NewContainerSplitter("split", obs)
		merge := misc.NewContainerMerger("merge", obs)
		root := component.New("observation")
		root.AddSub(split.Component)
		root.AddSub(merge.Component)
		root.DefineAPI("split", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
			return split.Call(ctx, "split", in...)
		})
		root.DefineAPI("roundtrip", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
			return merge.Call(ctx, "merge", split.Call(ctx, "split", in...)...)
		})
		test, err := exec.NewComponentTest(backendName, root, exec.InputSpaces{
			"split":     {record},
			"roundtrip": {record},
		})
		if err != nil {
			log.Fatal(err)
		}

		sample := spaces.SampleContainer(obs, rng, 5)
		if !spaces.ContainsValue(obs, sample) {
			log.Fatalf("[%s] sampled value is not an element of %s", backendName, obs)
		}
		flat := misc.FlattenContainerValue(obs, sample)
		leaves, err := test.Test("split", flat)
		if err != nil {
			log.Fatal(err)
		}
		for i, path := range split.LeafPaths() {
			if !leaves[i].Equal(sample.Get(path).Leaf) {
				log.Fatalf("[%s] split leaf %q differs from the sample", backendName, path)
			}
			fmt.Printf("[%s] split leaf %-8s shape %v\n", backendName, path, leaves[i].Shape())
		}
		back, err := test.Test("roundtrip", flat)
		if err != nil {
			log.Fatal(err)
		}
		if !back[0].Equal(flat) {
			log.Fatalf("[%s] merge(split(x)) != x", backendName)
		}
		fmt.Printf("[%s] merge(split(x)) == x for a %v record\n\n", backendName, flat.Shape())
	}
}
