package envs

import (
	"math"
	"math/rand"

	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// CartPole is the classic pole-balancing control task (Barto, Sutton &
// Anderson dynamics, OpenAI-gym parameterization): 4-value state, 2 actions,
// +1 per surviving step, episode capped at 200 steps.
type CartPole struct {
	rng *rand.Rand

	x, xDot, theta, thetaDot float64
	steps                    int
	maxSteps                 int
}

// NewCartPole returns a seeded CartPole with a 200-step cap.
func NewCartPole(seed int64) *CartPole {
	return &CartPole{rng: rand.New(rand.NewSource(seed)), maxSteps: 200}
}

// StateSpace is a 4-value feature box.
func (c *CartPole) StateSpace() spaces.Space { return spaces.NewFloatBox(4) }

// ActionSpace is {push-left, push-right}.
func (c *CartPole) ActionSpace() *spaces.IntBox { return spaces.NewIntBox(2) }

// Reset samples a near-upright start state.
func (c *CartPole) Reset() *tensor.Tensor {
	c.x = c.rng.Float64()*0.1 - 0.05
	c.xDot = c.rng.Float64()*0.1 - 0.05
	c.theta = c.rng.Float64()*0.1 - 0.05
	c.thetaDot = c.rng.Float64()*0.1 - 0.05
	c.steps = 0
	return c.obs()
}

// Step applies Euler-integrated cart-pole dynamics.
func (c *CartPole) Step(action int) (*tensor.Tensor, float64, bool) {
	const (
		gravity    = 9.8
		massCart   = 1.0
		massPole   = 0.1
		totalMass  = massCart + massPole
		length     = 0.5
		poleMass   = massPole * length
		forceMag   = 10.0
		tau        = 0.02
		thetaLimit = 12 * 2 * math.Pi / 360
		xLimit     = 2.4
	)
	force := -forceMag
	if action == 1 {
		force = forceMag
	}
	cosT, sinT := math.Cos(c.theta), math.Sin(c.theta)
	temp := (force + poleMass*c.thetaDot*c.thetaDot*sinT) / totalMass
	thetaAcc := (gravity*sinT - cosT*temp) /
		(length * (4.0/3.0 - massPole*cosT*cosT/totalMass))
	xAcc := temp - poleMass*thetaAcc*cosT/totalMass

	c.x += tau * c.xDot
	c.xDot += tau * xAcc
	c.theta += tau * c.thetaDot
	c.thetaDot += tau * thetaAcc
	c.steps++

	done := c.x < -xLimit || c.x > xLimit ||
		c.theta < -thetaLimit || c.theta > thetaLimit ||
		c.steps >= c.maxSteps
	return c.obs(), 1, done
}

func (c *CartPole) obs() *tensor.Tensor {
	return tensor.FromSlice([]float64{c.x, c.xDot, c.theta, c.thetaDot}, 4)
}

// GridWorld is an N×N grid with a goal in the corner: actions {up, down,
// left, right}, reward +1 at the goal, -0.01 per step, episodes capped at
// 4·N² steps. One-hot state encoding keeps it trivially learnable — the
// integration-test workload.
type GridWorld struct {
	n        int
	x, y     int
	steps    int
	maxSteps int
	rng      *rand.Rand
}

// NewGridWorld returns an n×n grid.
func NewGridWorld(n int, seed int64) *GridWorld {
	return &GridWorld{n: n, maxSteps: 4 * n * n, rng: rand.New(rand.NewSource(seed))}
}

// StateSpace is a one-hot position encoding of length n².
func (g *GridWorld) StateSpace() spaces.Space { return spaces.NewBoundedFloatBox(0, 1, g.n*g.n) }

// ActionSpace is {up, down, left, right}.
func (g *GridWorld) ActionSpace() *spaces.IntBox { return spaces.NewIntBox(4) }

// Reset places the agent at the top-left corner.
func (g *GridWorld) Reset() *tensor.Tensor {
	g.x, g.y, g.steps = 0, 0, 0
	return g.obs()
}

// Step moves the agent; walking into walls is a no-op.
func (g *GridWorld) Step(action int) (*tensor.Tensor, float64, bool) {
	switch action {
	case 0:
		if g.y > 0 {
			g.y--
		}
	case 1:
		if g.y < g.n-1 {
			g.y++
		}
	case 2:
		if g.x > 0 {
			g.x--
		}
	case 3:
		if g.x < g.n-1 {
			g.x++
		}
	}
	g.steps++
	atGoal := g.x == g.n-1 && g.y == g.n-1
	reward := -0.01
	if atGoal {
		reward = 1
	}
	return g.obs(), reward, atGoal || g.steps >= g.maxSteps
}

func (g *GridWorld) obs() *tensor.Tensor {
	t := tensor.New(g.n * g.n)
	t.Data()[g.y*g.n+g.x] = 1
	return t
}

// LabyrinthSim stands in for the DeepMind Lab 3D task of Fig. 9
// (seekavoid_arena_01): observations are synthetic 72×96×3-equivalent
// feature frames whose generation burns a configurable CPU budget,
// reproducing the property the paper leans on — DM-Lab frames are much more
// expensive to render than Atari frames.
type LabyrinthSim struct {
	rng        *rand.Rand
	renderCost int // synthetic work units per frame
	steps      int
	maxSteps   int
	sink       float64
}

// NewLabyrinthSim returns a simulator with the given per-frame render cost
// (iterations of synthetic work; ~2000 ≈ an expensive 3D frame relative to
// PongSim).
func NewLabyrinthSim(renderCost int, seed int64) *LabyrinthSim {
	if renderCost <= 0 {
		renderCost = 2000
	}
	return &LabyrinthSim{
		rng:        rand.New(rand.NewSource(seed)),
		renderCost: renderCost,
		maxSteps:   3600, // 60 seconds at 60 fps, as in DM-Lab episodes
	}
}

// StateSpace is a flattened 72×96-ish feature frame (6912 values reduced to
// 128 synthetic features to keep network cost realistic for a scaled run).
func (l *LabyrinthSim) StateSpace() spaces.Space { return spaces.NewFloatBox(128) }

// ActionSpace matches the small discretized DM-Lab action set.
func (l *LabyrinthSim) ActionSpace() *spaces.IntBox { return spaces.NewIntBox(9) }

// Reset starts a new episode.
func (l *LabyrinthSim) Reset() *tensor.Tensor {
	l.steps = 0
	return l.render()
}

// Step advances the walk; apples (+1) appear stochastically, lemons (-1)
// rarely, mirroring seekavoid's reward sparsity.
func (l *LabyrinthSim) Step(action int) (*tensor.Tensor, float64, bool) {
	l.steps++
	reward := 0.0
	switch {
	case l.rng.Float64() < 0.02:
		reward = 1
	case l.rng.Float64() < 0.005:
		reward = -1
	}
	_ = action
	return l.render(), reward, l.steps >= l.maxSteps
}

// render burns the configured render budget and emits a frame.
func (l *LabyrinthSim) render() *tensor.Tensor {
	acc := l.sink
	for i := 0; i < l.renderCost; i++ {
		acc += math.Sqrt(float64(i&1023) + 1)
	}
	l.sink = acc * 1e-12 // keep the work observable to the optimizer
	t := tensor.New(128)
	for i := range t.Data() {
		t.Data()[i] = l.rng.Float64()
	}
	return t
}
