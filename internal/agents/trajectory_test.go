package agents

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"rlgraph/internal/components/memories"
	"rlgraph/internal/components/optimizers"
	"rlgraph/internal/envs"
	"rlgraph/internal/exec"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

var updateGolden = flag.Bool("update", false, "rewrite this GOARCH's hashes in testdata/trajectories.json")

const trajectoriesFile = "testdata/trajectories.json"

// TestGoldenTrajectories pins the product of every kernel, plan and replay
// path on the shipped training configs: each case trains from fixed seeds for
// a few updates and hashes the Float64bits of every variable and optimizer
// slot, the losses, and the replay indices the learner sampled where they
// leave the graph (the Ape-X shard). Every cell — static serial plan,
// static parallel plan with four kernel workers, or define-by-run; any
// GOMAXPROCS — must give the committed hash. The pixel network also trains at
// batch 16, where its first conv forks, on the serial plan and on plans left
// to choose their executor with two and four kernel workers, which choose
// the parallel one. `go test -run
// TestGoldenTrajectories -update` rewrites the running GOARCH's hashes after
// an intended numerical change.
//
// The file keeps one hash per GOARCH. Go's math.Exp is assembly on amd64 and
// differs in the last bit from the portable Go that 386 runs (math.Pow and
// math.Tanh call it), so only the portable cases, which never reach Exp,
// must hash the same on every architecture.
func TestGoldenTrajectories(t *testing.T) {
	standard := []cell{{"static", 1, 2}, {"static", 2, 4}, {"define-by-run", 1, 2}}
	chosen := []cell{{"static", 1, 2}, {"static", 0, 2}, {"static", 0, 4}}
	cases := []struct {
		name     string
		portable bool
		run      func(t *testing.T, h *trajectoryHash, c cell)
		cells    []cell
	}{
		{"dqn_cartpole", true, runDQNCartPole, standard},
		{"dueling_dqn_pixels", false, runDuelingPixels, standard}, // prioritized replay: math.Pow
		{"apex_learner", false, runApexLearner, standard},         // prioritized replay: math.Pow
		{"impala_learner", false, runIMPALALearner, standard},     // softmax: math.Exp
		{"dueling_dqn_pixels_b16", false, runDuelingPixelsForking, chosen},
	}
	golden := map[string]map[string]string{}
	if data, err := os.ReadFile(trajectoriesFile); err == nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("%s: %v", trajectoriesFile, err)
		}
	} else if !*updateGolden {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	arch := runtime.GOARCH
	defer tensor.SetKernelParallelism(tensor.KernelParallelism())
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got string
			for _, cl := range c.cells {
				tensor.SetKernelParallelism(cl.kernels)
				h := newTrajectoryHash()
				c.run(t, h, cl)
				if sum := h.sum(); got == "" {
					got = sum
				} else if sum != got {
					t.Fatalf("%+v: hash %s, static serial plan %s", cl, sum, got)
				}
			}
			if *updateGolden {
				if golden[c.name] == nil {
					golden[c.name] = map[string]string{}
				}
				golden[c.name][arch] = got
				return
			}
			want, ok := golden[c.name][arch]
			if !ok {
				t.Skipf("no hash recorded for GOARCH=%s", arch)
			}
			if got != want {
				t.Errorf("trajectory hash %s, want %s", got, want)
			}
			if c.portable {
				for other, h := range golden[c.name] {
					if h != want {
						t.Errorf("portable case: GOARCH=%s hash %s, %s hash %s", arch, want, other, h)
					}
				}
			}
		})
	}
	if *updateGolden && !t.Failed() {
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trajectoriesFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// cell is one way of running a case: the backend, the static session's
// SetParallelism (0: no call, the plans choose) and the kernel parallelism.
type cell struct {
	backend       string
	plan, kernels int
}

// trajectoryHash accumulates the bit patterns of a training run.
type trajectoryHash struct{ buf []byte }

func newTrajectoryHash() *trajectoryHash { return &trajectoryHash{} }

func (h *trajectoryHash) float(x float64) {
	h.buf = binary.LittleEndian.AppendUint64(h.buf, math.Float64bits(x))
}

func (h *trajectoryHash) tensor(x *tensor.Tensor) {
	for _, d := range x.Shape() {
		h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(d))
	}
	for _, v := range x.Data() {
		h.float(v)
	}
}

// variables hashes every variable of store in name order and, for those opt
// updates, its optimizer slots and step count.
func (h *trajectoryHash) variables(store *vars.Store, opt *optimizers.Optimizer) {
	all := store.All()
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	slots := optimizerSlots(opt)
	for _, v := range all {
		h.buf = append(h.buf, v.Name...)
		h.tensor(v.Val)
		if st := slots[v]; st != nil {
			for _, s := range []*tensor.Tensor{st.M, st.V} {
				if s != nil {
					h.tensor(s)
				}
			}
			h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(st.Steps))
		}
	}
}

func (h *trajectoryHash) sum() string {
	s := sha256.Sum256(h.buf)
	return hex.EncodeToString(s[:])
}

// optimizerSlots reads an optimizer's per-variable update state, which no
// shipped caller needs and so has no accessor.
func optimizerSlots(o *optimizers.Optimizer) map[*vars.Variable]*tensor.UpdateState {
	f := reflect.ValueOf(o).Elem().FieldByName("state")
	return *(*map[*vars.Variable]*tensor.UpdateState)(unsafe.Pointer(f.UnsafeAddr()))
}

// shippedAgent builds configs/<name>.json through FromConfig on c's backend
// with the seed and the fields in set overridden, as the regression benchmark
// does, and sets a static agent's plan parallelism when the cell names one.
func shippedAgent(t *testing.T, name string, seed int64, set map[string]interface{}, env envs.Env, c cell) Agent {
	raw, err := os.ReadFile(filepath.Join("..", "..", "configs", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]interface{}{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["seed"] = seed
	doc["backend"] = c.backend
	for k, v := range set {
		doc[k] = v
	}
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	a, err := FromConfig(raw, env.StateSpace(), env.ActionSpace())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Build(); err != nil {
		t.Fatal(err)
	}
	if se, ok := a.(interface{ Executor() exec.Executor }).Executor().(*exec.StaticExecutor); ok && c.plan > 0 {
		se.Session().SetParallelism(c.plan)
	}
	return a
}

// observeCycles acts ε-greedily in vec for cycles rounds and observes each
// 1-step batch, as the regression benchmark's training loop does.
func observeCycles(t *testing.T, a *DQN, vec *envs.VectorEnv, cycles int) {
	n := vec.Len()
	acts := make([]int, n)
	for c := 0; c < cycles; c++ {
		states := vec.States().Clone()
		chosen, err := a.GetActions(states, true)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range chosen.Data() {
			acts[i] = int(v)
		}
		next, rewards, terms := vec.StepAll(acts)
		if err := a.Observe(states, chosen.Clone(),
			tensor.FromSlice(append([]float64(nil), rewards...), n), next,
			tensor.FromSlice(append([]float64(nil), terms...), n)); err != nil {
			t.Fatal(err)
		}
	}
}

// trainInGraph alternates observe rounds and update_from_memory calls.
func trainInGraph(t *testing.T, h *trajectoryHash, a *DQN, vec *envs.VectorEnv, warm, updates, cyclesPerUpdate int) {
	observeCycles(t, a, vec, warm)
	for u := 0; u < updates; u++ {
		observeCycles(t, a, vec, cyclesPerUpdate)
		loss, err := a.Update()
		if err != nil {
			t.Fatal(err)
		}
		h.float(loss)
	}
	h.variables(a.Root().AllVariables(), a.opt)
}

func runDQNCartPole(t *testing.T, h *trajectoryHash, c cell) {
	list := make([]envs.Env, 4)
	for i := range list {
		list[i] = envs.NewCartPole(int64(100 + i))
	}
	a := shippedAgent(t, "dqn_cartpole", 7, map[string]interface{}{"target_sync_every": 10}, list[0], c).(*DQN)
	trainInGraph(t, h, a, envs.NewVectorEnv(list...), 16, 200, 4)
}

func runDuelingPixels(t *testing.T, h *trajectoryHash, c cell) { duelingPixels(t, h, c, 4, 4, 8) }

// runDuelingPixelsForking trains at batch 16, where the first conv's forward
// pass (409,600 multiply-adds per image) crosses the kernels' fork threshold,
// and checks that a cell left to choose took the parallel plan.
func runDuelingPixelsForking(t *testing.T, h *trajectoryHash, c cell) {
	a := duelingPixels(t, h, c, 16, 8, 2)
	if c.plan == 0 && a.Executor().(*exec.StaticExecutor).Session().ParallelRuns() == 0 {
		t.Fatalf("%+v: no update ran on the parallel plan", c)
	}
}

func duelingPixels(t *testing.T, h *trajectoryHash, c cell, batch, warm, updates int) *DQN {
	list := make([]envs.Env, 2)
	for i := range list {
		list[i] = envs.NewPongSim(envs.PongConfig{
			Obs: envs.PongPixels, FrameSkip: 4, PointsToWin: 5, Seed: int64(200 + i),
			OpponentSkill: envs.DefaultPongOpponent,
		})
	}
	a := shippedAgent(t, "dueling_dqn_pixels", 7,
		map[string]interface{}{"batch_size": batch, "target_sync_every": 2}, list[0], c).(*DQN)
	trainInGraph(t, h, a, envs.NewVectorEnv(list...), warm, updates, 1)
	return a
}

// runApexLearner is the Ape-X learner step outside raysim: a worker agent
// inserts transitions with its computed priorities into a define-by-run
// prioritized shard, and the learner samples the shard, applies
// update_external and writes the TD errors back as priorities.
func runApexLearner(t *testing.T, h *trajectoryHash, c cell) {
	list := make([]envs.Env, 4)
	for i := range list {
		list[i] = envs.NewPongSim(envs.PongConfig{
			Obs: envs.PongFeatures, FrameSkip: 4, PointsToWin: 5, Seed: int64(300 + i),
			OpponentSkill: envs.DefaultPongOpponent,
		})
	}
	stateSpace := list[0].StateSpace()
	learner := shippedAgent(t, "apex_pong", 7, nil, list[0], c).(*DQN)
	worker := shippedAgent(t, "apex_pong", 8, nil, list[0], c).(*DQN)

	mem := memories.NewPrioritizedReplay("replay-0", 1024, 5, 0.6, 0.4, 9)
	sB := stateSpace.WithBatchRank()
	fB := spaces.NewFloatBox().WithBatchRank()
	shard, err := exec.NewComponentTest("define-by-run", mem.Component, exec.InputSpaces{
		"insert":                 {sB, fB, fB, sB, fB},
		"insert_with_priorities": {sB, fB, fB, sB, fB, fB},
		"sample":                 {spaces.NewFloatBox()},
		"update":                 {fB, fB},
	})
	if err != nil {
		t.Fatal(err)
	}
	vec := envs.NewVectorEnv(list...)
	acts := make([]int, vec.Len())
	collect := func(cycles int) {
		for c := 0; c < cycles; c++ {
			states := vec.States().Clone()
			chosen, err := worker.GetActions(states, true)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range chosen.Data() {
				acts[i] = int(v)
			}
			next, rewards, terms := vec.StepAll(acts)
			r := tensor.FromSlice(append([]float64(nil), rewards...), len(acts))
			term := tensor.FromSlice(append([]float64(nil), terms...), len(acts))
			ns := next.Clone()
			prio, err := worker.ComputePriorities(states, chosen, r, ns, term)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := shard.Test("insert_with_priorities", states, chosen, r, ns, term, prio); err != nil {
				t.Fatal(err)
			}
		}
	}
	collect(32)
	for u := 0; u < 50; u++ {
		collect(2)
		outs, err := shard.Test("sample", tensor.Scalar(float64(learner.cfg.BatchSize)))
		if err != nil {
			t.Fatal(err)
		}
		h.tensor(outs[5]) // sampled indices
		h.tensor(outs[6]) // importance weights
		loss, td, err := learner.UpdateExternal(outs[0], outs[1], outs[2], outs[3], outs[4], outs[6])
		if err != nil {
			t.Fatal(err)
		}
		h.float(loss)
		if _, err := shard.Test("update", outs[5], td); err != nil {
			t.Fatal(err)
		}
	}
	h.variables(learner.Root().AllVariables(), learner.opt)
}

// runIMPALALearner applies update to rollouts an IMPALA agent collects with
// its own act_sample, assembled the way the IMPALA executor's actors do.
func runIMPALALearner(t *testing.T, h *trajectoryHash, c cell) {
	env := envs.NewLabyrinthSim(50, 400)
	a := shippedAgent(t, "impala_lab", 7, nil, env, c).(*IMPALA)
	T := a.RolloutLen()
	cur := env.Reset().Clone()
	for u := 0; u < 30; u++ {
		var states, nexts []*tensor.Tensor
		actions, rewards, discounts, logps := make([]float64, T), make([]float64, T), make([]float64, T), make([]float64, T)
		for k := 0; k < T; k++ {
			act, logp, err := a.ActSample(cur.Reshape(append([]int{1}, cur.Shape()...)...))
			if err != nil {
				t.Fatal(err)
			}
			next, r, done := env.Step(int(act.Data()[0]))
			next = next.Clone()
			states = append(states, cur)
			actions[k], rewards[k], logps[k] = act.Data()[0], r, logp.Data()[0]
			discounts[k] = a.Gamma()
			if done {
				discounts[k] = 0
				next = env.Reset().Clone()
			}
			nexts = append(nexts, next)
			cur = next
		}
		loss, err := a.UpdateRollout(tensor.Stack(states...), tensor.FromSlice(actions, T),
			tensor.FromSlice(rewards, T), tensor.FromSlice(discounts, T),
			tensor.FromSlice(logps, T), tensor.Stack(nexts[T-1]))
		if err != nil {
			t.Fatal(err)
		}
		h.float(loss)
	}
	h.variables(a.Root().AllVariables(), a.opt)
}
