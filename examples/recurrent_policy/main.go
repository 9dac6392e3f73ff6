// Recurrent policy from a declarative spec (paper Listing 1): a policy with
// an LSTM core is constructed from a JSON network document for a time-ranked
// state space, built in isolation from the spaces, and probed with sampled
// inputs — on both backends.
//
//	go run ./examples/recurrent_policy
package main

import (
	"fmt"
	"log"
	"math/rand"

	"rlgraph/internal/components/nn"
	"rlgraph/internal/components/policy"
	"rlgraph/internal/exec"
	"rlgraph/internal/spaces"
)

// recurrentPolicyJSON is the network document ("recurrent_policy.json").
const recurrentPolicyJSON = `[
	{"type": "lstm", "units": 32},
	{"type": "dense", "units": 4}
]`

func main() {
	// State space of sequences: 8 observations of 6 features per element,
	// plus the batch rank (paper: add_batch_rank; the time length is part of
	// the element shape).
	stateSpace := spaces.NewFloatBox(8, 6).WithBatchRank()
	actionSpace := spaces.NewIntBox(4)

	specs, err := nn.ParseNetworkSpec([]byte(recurrentPolicyJSON))
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	for _, backendName := range exec.Backends() {
		net := nn.MustNetwork("recurrent-net", specs, 42)
		pol := policy.New("policy", net.Component, actionSpace, nil)

		test, err := exec.NewComponentTest(backendName, pol.Component, exec.InputSpaces{
			"q_values":   {stateSpace},
			"act_greedy": {stateSpace},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] %s\n", backendName, test.Report())

		q, err := test.TestWithSamples("q_values", rng, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] q over 8-step sequences: shape %v\n", backendName, q[0].Shape())

		actions, err := test.TestWithSamples("act_greedy", rng, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] greedy actions: %v\n\n", backendName, actions[0].Data())
	}
}
