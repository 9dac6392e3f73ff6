package agents

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"rlgraph/internal/components/nn"
	"rlgraph/internal/exec"
	"rlgraph/internal/israce"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// Tests of what the in-place optimizer update must not break: the weights
// other parts of the system hold (snapshots, the target network) and the
// steady-state allocation profile.

// trainingDQN builds a static DQN with `units`-wide hidden layers and fills
// its memory with `inserts` batches of 20 random transitions.
func trainingDQN(t *testing.T, units, inserts int) (*DQN, *tensor.Tensor) {
	t.Helper()
	cfg := smallDQNConfig("static")
	cfg.Network = []nn.LayerSpec{
		{Type: "dense", Units: units, Activation: "relu"},
		{Type: "dense", Units: units, Activation: "relu"},
	}
	cfg.BatchSize = 16
	cfg.TargetSyncEvery = 0
	agent, err := NewDQN(cfg, spaces.NewFloatBox(4), spaces.NewIntBox(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Build(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var s *tensor.Tensor
	for i := 0; i < inserts; i++ {
		s = tensor.RandNormal(rng, 0, 1, 20, 4)
		a, r := tensor.New(20), tensor.RandNormal(rng, 0, 1, 20)
		for k := range a.Data() {
			a.Data()[k] = float64(rng.Intn(2))
		}
		if err := agent.Observe(s, a, r, tensor.RandNormal(rng, 0, 1, 20, 4), tensor.New(20)); err != nil {
			t.Fatal(err)
		}
	}
	return agent, s
}

func mustQ(t *testing.T, a *DQN, s *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	q, err := a.GetQValues(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func mustUpdate(t *testing.T, a *DQN, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := a.Update(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotsDetachFromInPlaceUpdates: GetWeights, SetWeights and the
// target sync all copy, so neither side of any of them moves when the other
// is mutated — by the caller or by the optimizer writing in place.
func TestSnapshotsDetachFromInPlaceUpdates(t *testing.T) {
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) { snapshotsDetach(t, par) })
	}
}

func snapshotsDetach(t *testing.T, par int) {
	agent, s := trainingDQN(t, 16, 5)
	agent.Executor().(*exec.StaticExecutor).Session().SetParallelism(par)
	mustUpdate(t, agent, 3)

	// Mutating a returned snapshot must not move the agent.
	q := mustQ(t, agent, s)
	snap := agent.GetWeights()
	for _, w := range snap {
		for i := range w.Data() {
			w.Data()[i] = 7
		}
	}
	if !mustQ(t, agent, s).Equal(q) {
		t.Fatal("mutating GetWeights' result changed the agent")
	}

	// Nor may training move a snapshot, the tensors handed to SetWeights, or
	// the synced target network.
	snap = agent.GetWeights()
	if err := agent.SetWeights(snap); err != nil {
		t.Fatal(err)
	}
	if err := agent.SyncTarget(); err != nil {
		t.Fatal(err)
	}
	target := trainableWeights(agent.target.AllVariables())
	kept := map[string]*tensor.Tensor{}
	for name, w := range snap {
		kept[name] = w.Clone()
	}
	// get_q_values reads the variables the update just wrote in place.
	mustUpdate(t, agent, 5)
	if mustQ(t, agent, s).Equal(q) {
		t.Fatal("five updates left the Q values unchanged")
	}
	for name, w := range snap {
		if !w.Equal(kept[name]) {
			t.Fatalf("training wrote through to snapshot %q", name)
		}
	}
	for name, w := range trainableWeights(agent.target.AllVariables()) {
		if !w.Equal(target[name]) {
			t.Fatalf("training wrote through to target variable %q", name)
		}
	}
}

// TestDQNUpdateAllocatesNothingParameterSized: with the arena warm, an
// update of a 2×256 network (67 k parameters, 540 KB) allocates a small
// fraction of one copy of them — gradients recycle through the arena and
// the optimizer's slots are updated in place. The old op chain installed two
// fresh slot tensors per variable per step (≥ 2× the parameter bytes).
//
// The parallel case holds what per-plan scratch bought: with two workers and
// buffer reuse on, an update stays under 300 allocations (it was ~890 when
// every run allocated its value, input and indegree arrays).
func TestDQNUpdateAllocatesNothingParameterSized(t *testing.T) {
	if israce.Enabled {
		t.Skip("under -race sync.Pool drops Puts at random, so the arena cannot stay warm")
	}
	for _, c := range []struct {
		name            string
		par, warm, runs int
		maxAllocs       float64 // 0 = unbounded
	}{
		{name: "serial", par: 1, warm: 3, runs: 20},
		{name: "parallel", par: 2, warm: 5, runs: 200, maxAllocs: 300},
	} {
		t.Run(c.name, func(t *testing.T) {
			agent, _ := trainingDQN(t, 256, 5)
			ex := agent.Executor().(*exec.StaticExecutor)
			ex.Session().SetParallelism(c.par)
			paramBytes := 0
			for _, w := range agent.GetWeights() {
				paramBytes += 8 * w.Size()
			}
			mustUpdate(t, agent, c.warm)
			// A collection empties the arena's pools; keep it out of the window.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(c.runs, func() { mustUpdate(t, agent, 1) })
			runtime.ReadMemStats(&after)
			perUpdate := int(after.TotalAlloc-before.TotalAlloc) / (c.runs + 1)
			t.Logf("%.0f allocs, %d bytes per update; parameters %d bytes", allocs, perUpdate, paramBytes)
			if perUpdate > paramBytes/8 {
				t.Fatalf("an update allocates %d bytes, more than 1/8 of the %d parameter bytes", perUpdate, paramBytes)
			}
			if c.maxAllocs > 0 && allocs > c.maxAllocs {
				t.Fatalf("an update makes %.0f allocations, more than %.0f", allocs, c.maxAllocs)
			}
		})
	}
}
