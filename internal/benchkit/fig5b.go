package benchkit

import (
	"fmt"
	"math/rand"
	"time"

	"rlgraph/internal/envs"
	"rlgraph/internal/tensor"
)

// Fig5bResult is one worker-act throughput measurement.
type Fig5bResult struct {
	Variant string // "TF RLgraph" (static), "PT RLgraph" (define-by-run), "PT hand-tuned"
	Envs    int
	FPS     float64
}

// Fig5b measures single-threaded act (inference) throughput on a vector of
// pixel Pong environments with the conv+dueling architecture (paper
// Fig. 5b): static-backend RLgraph, define-by-run RLgraph, and a bare-bones
// hand-tuned eager actor that bypasses the component graph entirely.
func Fig5b(envCounts []int, steps int) ([]Fig5bResult, error) {
	var out []Fig5bResult
	for _, n := range envCounts {
		for _, variant := range []string{"TF RLgraph", "PT RLgraph", "PT hand-tuned"} {
			fps, err := fig5bPoint(variant, n, steps)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig5bResult{Variant: variant, Envs: n, FPS: fps})
		}
	}
	return out, nil
}

func fig5bPoint(variant string, numEnvs, steps int) (float64, error) {
	mkEnvs := func() []envs.Env {
		es := make([]envs.Env, numEnvs)
		for i := range es {
			es[i] = envs.NewPongSim(envs.PongConfig{
				Obs: envs.PongPixels, FrameSkip: 4, Seed: int64(i + 1),
				OpponentSkill: envs.DefaultPongOpponent,
			})
		}
		return es
	}

	switch variant {
	case "TF RLgraph", "PT RLgraph":
		backendName := "static"
		if variant == "PT RLgraph" {
			backendName = "define-by-run"
		}
		vec := envs.NewVectorEnv(mkEnvs()...)
		agent, err := BuildAgent(DuelingDQNConfig(backendName, atariNet(), 1), vec.Envs[0])
		if err != nil {
			return 0, err
		}
		// Act-only loop (like the paper's Fig. 5b): batched action
		// selection + env stepping, no transition collection.
		act := func() error {
			states := vec.States()
			actions, err := agent.GetActions(states, true)
			if err != nil {
				return err
			}
			acts := make([]int, numEnvs)
			for i := range acts {
				acts[i] = int(actions.Data()[i])
			}
			vec.StepAll(acts)
			return nil
		}
		vec.ResetAll()
		for s := 0; s < 3; s++ { // warm-up
			if err := act(); err != nil {
				return 0, err
			}
		}
		// Time-budgeted measurement: repeat fixed-size tasks until the
		// budget elapses so small-batch points aren't noise-dominated.
		budget := time.Duration(steps) * 25 * time.Millisecond
		start := time.Now()
		frames := 0
		for time.Since(start) < budget {
			for s := 0; s < steps; s++ {
				if err := act(); err != nil {
					return 0, err
				}
				frames += numEnvs * 4
			}
		}
		return float64(frames) / time.Since(start).Seconds(), nil

	case "PT hand-tuned":
		vec := envs.NewVectorEnv(mkEnvs()...)
		actor := newHandTunedActor(1)
		vec.ResetAll()
		for s := 0; s < 3; s++ { // warm-up
			vec.StepAll(actor.act(vec.States()))
		}
		budget := time.Duration(steps) * 25 * time.Millisecond
		start := time.Now()
		frames := 0
		for time.Since(start) < budget {
			for s := 0; s < steps; s++ {
				states := vec.States()
				acts := actor.act(states)
				vec.StepAll(acts)
				frames += numEnvs * 4
			}
		}
		return float64(frames) / time.Since(start).Seconds(), nil
	}
	return 0, fmt.Errorf("benchkit: unknown variant %q", variant)
}

// handTunedActor is the bare-bones eager actor: the same conv+dueling math
// with raw tensors and no component dispatch, graph, or executor — the "PT
// hand-tuned" bar of Fig. 5b.
type handTunedActor struct {
	c1w, c1b *tensor.Tensor
	c2w, c2b *tensor.Tensor
	c3w, c3b *tensor.Tensor
	dw, db   *tensor.Tensor
	vW, vB   *tensor.Tensor
	v2W, v2B *tensor.Tensor
	aW, aB   *tensor.Tensor
	a2W, a2B *tensor.Tensor
	rng      *rand.Rand
}

func newHandTunedActor(seed int64) *handTunedActor {
	rng := rand.New(rand.NewSource(seed))
	g := func(fanIn, fanOut int, shape ...int) *tensor.Tensor {
		return tensor.GlorotUniform(rng, fanIn, fanOut, shape...)
	}
	// Conv feature dims: 84→20→9→7; flatten = 7*7*32.
	flat := 7 * 7 * 32
	return &handTunedActor{
		c1w: g(8*8*1, 8*8*16, 8, 8, 1, 16), c1b: tensor.New(16),
		c2w: g(4*4*16, 4*4*32, 4, 4, 16, 32), c2b: tensor.New(32),
		c3w: g(3*3*32, 3*3*32, 3, 3, 32, 32), c3b: tensor.New(32),
		dw: g(flat, 256, flat, 256), db: tensor.New(256),
		vW: g(256, 64, 256, 64), vB: tensor.New(64),
		v2W: g(64, 1, 64, 1), v2B: tensor.New(1),
		aW: g(256, 64, 256, 64), aB: tensor.New(64),
		a2W: g(64, 3, 64, 3), a2B: tensor.New(3),
		rng: rng,
	}
}

func (h *handTunedActor) act(states *tensor.Tensor) []int {
	x := tensor.Relu(tensor.Add(tensor.Conv2D(states, h.c1w,
		tensor.ConvParams{StrideH: 4, StrideW: 4}), h.c1b))
	x = tensor.Relu(tensor.Add(tensor.Conv2D(x, h.c2w,
		tensor.ConvParams{StrideH: 2, StrideW: 2}), h.c2b))
	x = tensor.Relu(tensor.Add(tensor.Conv2D(x, h.c3w,
		tensor.ConvParams{StrideH: 1, StrideW: 1}), h.c3b))
	x = x.Reshape(x.Dim(0), -1)
	x = tensor.Relu(tensor.Add(tensor.MatMul(x, h.dw), h.db))
	v := tensor.Relu(tensor.Add(tensor.MatMul(x, h.vW), h.vB))
	v = tensor.Add(tensor.MatMul(v, h.v2W), h.v2B)
	a := tensor.Relu(tensor.Add(tensor.MatMul(x, h.aW), h.aB))
	a = tensor.Add(tensor.MatMul(a, h.a2W), h.a2B)
	q := tensor.Add(v, tensor.Sub(a, tensor.MeanAxis(a, 1, true)))
	am := tensor.ArgMaxAxis(q, 1)
	out := make([]int, am.Size())
	for i := range out {
		out[i] = int(am.Data()[i])
	}
	return out
}
