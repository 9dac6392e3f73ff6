package envs

import (
	"math/rand"

	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// PongObs selects PongSim's observation encoding.
type PongObs int

const (
	// PongFeatures yields a 6-value feature vector (ball x/y/vx/vy, agent
	// paddle y, opponent paddle y), all normalized — cheap and learnable.
	PongFeatures PongObs = iota
	// PongPixels yields an 84×84×1 rendered frame like preprocessed Atari.
	PongPixels
)

// PongConfig parameterizes the simulator.
type PongConfig struct {
	// Obs selects the observation encoding.
	Obs PongObs
	// FrameSkip repeats each action k frames, summing rewards (Atari
	// frame-skip semantics; the paper reports env frames including skips).
	FrameSkip int
	// PointsToWin ends the episode when either side reaches this score
	// (21 in Pong; lower it for faster-terminating training workloads).
	PointsToWin int
	// OpponentSkill in [0,1] is the chance per frame that the opponent
	// paddle tracks the ball correctly. Zero is honored — the opponent
	// never tracks (a stationary paddle, the trivially beatable drill
	// opponent). Any negative value selects the default of 0.7
	// (PongDefaultOpponentSkill); use DefaultPongOpponent as the sentinel.
	OpponentSkill float64
	// Seed fixes ball serves and opponent noise.
	Seed int64
}

// PongSim is a deterministic two-paddle Pong with Atari-like scoring: the
// agent plays the right paddle with actions {noop, up, down}, each rally won
// scores +1/-1, and the episode ends at PointsToWin (±21 episode returns,
// like the learning curves of Fig. 7b/8).
//
// Observations are borrowed: both the pixel frame and the feature vector are
// backed by per-env buffers reused across Step/Reset calls (the render hot
// path erases and redraws in place instead of allocating a fresh 84×84
// tensor per step). Callers that retain an observation across a later
// Step/Reset must copy it first — the same discipline as VectorEnv's batched
// outputs, which already copy rows into their own buffer.
type PongSim struct {
	cfg PongConfig
	rng *rand.Rand

	ballX, ballY   float64
	ballVX, ballVY float64
	agentY, oppY   float64
	agentScore     int
	oppScore       int

	stateSpace spaces.Space

	// frameBuf is the reused pixel frame; dirty lists the flat [lo,hi) spans
	// drawn into it last render, so the next render erases sparsely instead
	// of clearing all 7056 pixels. obsBuf is the reused feature vector.
	frameBuf *tensor.Tensor
	dirty    [][2]int
	obsBuf   *tensor.Tensor
}

const (
	pongPaddleHalf  = 0.15
	pongPaddleSpeed = 0.04
	pongBallSpeed   = 0.03
	// pongBallMaxVY caps the vertical speed spin can impart. The feature
	// observation normalizes vy as ballVY/pongBallSpeed/2, so the cap is
	// exactly what keeps that feature inside the declared
	// BoundedFloatBox(-1, 1, 6) — without it, repeated off-center paddle
	// hits grow |ballVY| without bound and serving admission
	// (spaces.ContainsElement) rejects the observation.
	pongBallMaxVY = 2 * pongBallSpeed
)

// PongDefaultOpponentSkill is the tracking skill applied when
// PongConfig.OpponentSkill is negative.
const PongDefaultOpponentSkill = 0.7

// DefaultPongOpponent is the OpponentSkill sentinel requesting the default
// skill; zero is a valid (never-tracking) skill and is honored as given.
const DefaultPongOpponent = -1.0

// NewPongSim returns a simulator with the given config.
func NewPongSim(cfg PongConfig) *PongSim {
	if cfg.FrameSkip <= 0 {
		cfg.FrameSkip = 1
	}
	if cfg.PointsToWin <= 0 {
		cfg.PointsToWin = 21
	}
	if cfg.OpponentSkill < 0 {
		cfg.OpponentSkill = PongDefaultOpponentSkill
	}
	p := &PongSim{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.Obs == PongPixels {
		p.stateSpace = spaces.NewBoundedFloatBox(0, 1, 84, 84, 1)
	} else {
		p.stateSpace = spaces.NewBoundedFloatBox(-1, 1, 6)
	}
	return p
}

// StateSpace describes the observation encoding.
func (p *PongSim) StateSpace() spaces.Space { return p.stateSpace }

// ActionSpace is {noop, up, down}.
func (p *PongSim) ActionSpace() *spaces.IntBox { return spaces.NewIntBox(3) }

// Reset starts a fresh episode.
func (p *PongSim) Reset() *tensor.Tensor {
	p.agentScore, p.oppScore = 0, 0
	p.agentY, p.oppY = 0.5, 0.5
	p.serve()
	return p.observe()
}

func (p *PongSim) serve() {
	p.ballX, p.ballY = 0.5, 0.5
	dir := 1.0
	if p.rng.Intn(2) == 0 {
		dir = -1
	}
	p.ballVX = pongBallSpeed * dir
	p.ballVY = pongBallSpeed * (p.rng.Float64()*2 - 1)
}

// Step applies an action with frame-skip.
func (p *PongSim) Step(action int) (*tensor.Tensor, float64, bool) {
	reward := 0.0
	done := false
	for i := 0; i < p.cfg.FrameSkip && !done; i++ {
		r, d := p.frame(action)
		reward += r
		done = d
	}
	return p.observe(), reward, done
}

// frame advances the simulation one tick.
func (p *PongSim) frame(action int) (float64, bool) {
	// Agent paddle.
	switch action {
	case 1:
		p.agentY -= pongPaddleSpeed
	case 2:
		p.agentY += pongPaddleSpeed
	}
	p.agentY = clamp01(p.agentY)

	// Opponent: noisy ball tracking.
	if p.rng.Float64() < p.cfg.OpponentSkill {
		if p.oppY < p.ballY-0.02 {
			p.oppY += pongPaddleSpeed * 0.9
		} else if p.oppY > p.ballY+0.02 {
			p.oppY -= pongPaddleSpeed * 0.9
		}
	}
	p.oppY = clamp01(p.oppY)

	// Ball motion with wall bounces.
	p.ballX += p.ballVX
	p.ballY += p.ballVY
	if p.ballY < 0 {
		p.ballY = -p.ballY
		p.ballVY = -p.ballVY
	}
	if p.ballY > 1 {
		p.ballY = 2 - p.ballY
		p.ballVY = -p.ballVY
	}

	reward := 0.0
	// Right side: agent paddle at x=1.
	if p.ballX >= 1 {
		if diff := p.ballY - p.agentY; diff >= -pongPaddleHalf && diff <= pongPaddleHalf {
			p.ballX = 2 - p.ballX
			p.ballVX = -p.ballVX
			// Impart spin from contact point, capped so long rallies cannot
			// accumulate unbounded vertical speed.
			p.ballVY = clampAbs(p.ballVY+diff*0.05, pongBallMaxVY)
		} else {
			p.oppScore++
			reward = -1
			p.serve()
		}
	}
	// Left side: opponent paddle at x=0.
	if p.ballX <= 0 {
		if diff := p.ballY - p.oppY; diff >= -pongPaddleHalf && diff <= pongPaddleHalf {
			p.ballX = -p.ballX
			p.ballVX = -p.ballVX
			p.ballVY = clampAbs(p.ballVY+diff*0.05, pongBallMaxVY)
		} else {
			p.agentScore++
			reward = 1
			p.serve()
		}
	}
	done := p.agentScore >= p.cfg.PointsToWin || p.oppScore >= p.cfg.PointsToWin
	return reward, done
}

func (p *PongSim) observe() *tensor.Tensor {
	if p.cfg.Obs == PongPixels {
		return p.render()
	}
	if p.obsBuf == nil {
		p.obsBuf = tensor.New(6)
	}
	d := p.obsBuf.Data()
	d[0] = p.ballX*2 - 1
	d[1] = p.ballY*2 - 1
	d[2] = p.ballVX / pongBallSpeed / 2
	d[3] = p.ballVY / pongBallSpeed / 2
	d[4] = p.agentY*2 - 1
	d[5] = p.oppY*2 - 1
	return p.obsBuf
}

// render draws ball and paddles into the reused 84×84 single-channel frame
// in the flat-kernel style: the previous frame's drawn spans are erased
// sparsely (a few dozen pixels, not all 7056) and each sprite row becomes
// one contiguous flat fill instead of per-pixel nested index math. Pixels
// are bit-equal to RenderNaive, pinned by TestPongFlatRendererBitEqual.
func (p *PongSim) render() *tensor.Tensor {
	if p.frameBuf == nil {
		p.frameBuf = tensor.New(84, 84, 1)
		p.dirty = make([][2]int, 0, 64)
	}
	d := p.frameBuf.Data()
	for _, sp := range p.dirty {
		for i := sp[0]; i < sp[1]; i++ {
			d[i] = 0
		}
	}
	p.dirty = p.dirty[:0]
	// Ball: 2×2 block, clipped at the frame edges like RenderNaive's set().
	bx, by := int(p.ballX*83), int(p.ballY*83)
	xlo, xhi := bx, bx+2
	if xlo < 0 {
		xlo = 0
	}
	if xhi > 84 {
		xhi = 84
	}
	if xlo < xhi {
		for dy := 0; dy < 2; dy++ {
			if y := by + dy; y >= 0 && y < 84 {
				p.fillRow(y*84+xlo, y*84+xhi)
			}
		}
	}
	// Paddles: 2-px-wide vertical bars, one contiguous 2-px fill per row
	// (agent at columns 82–83, opponent at columns 0–1).
	scale := 83.0
	half := int(scale * pongPaddleHalf)
	ay, oy := int(p.agentY*83), int(p.oppY*83)
	for k := -half; k <= half; k++ {
		if y := ay + k; y >= 0 && y < 84 {
			p.fillRow(y*84+82, y*84+84)
		}
		if y := oy + k; y >= 0 && y < 84 {
			p.fillRow(y*84, y*84+2)
		}
	}
	return p.frameBuf
}

// fillRow sets the flat span [lo,hi) of the frame to 1 and records it for
// the next render's sparse erase.
func (p *PongSim) fillRow(lo, hi int) {
	d := p.frameBuf.Data()
	for i := lo; i < hi; i++ {
		d[i] = 1
	}
	p.dirty = append(p.dirty, [2]int{lo, hi})
}

// RenderNaive draws ball and paddles into a freshly allocated 84×84 frame
// with per-pixel bounds-checked writes — the pre-kernel reference renderer,
// retained (like MatMulNaive/Conv2DNaive) as the differential baseline the
// flat renderer is pinned bit-equal against, and as the allocation baseline
// for the env bench's render-alloc gate.
// oracle: TestPongFlatRendererBitEqual checks the flat renderer against it.
func (p *PongSim) RenderNaive() *tensor.Tensor {
	t := tensor.New(84, 84, 1)
	d := t.Data()
	set := func(x, y int) {
		if x >= 0 && x < 84 && y >= 0 && y < 84 {
			d[y*84+x] = 1
		}
	}
	// Ball: 2x2 block.
	bx, by := int(p.ballX*83), int(p.ballY*83)
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			set(bx+dx, by+dy)
		}
	}
	// Paddles: vertical bars.
	scale := 83.0
	half := int(scale * pongPaddleHalf)
	ay := int(p.agentY * 83)
	oy := int(p.oppY * 83)
	for k := -half; k <= half; k++ {
		set(82, ay+k)
		set(83, ay+k)
		set(0, oy+k)
		set(1, oy+k)
	}
	return t
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func clampAbs(x, bound float64) float64 {
	if x > bound {
		return bound
	}
	if x < -bound {
		return -bound
	}
	return x
}
