package envs

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

func TestPongFeatureObservationsInSpace(t *testing.T) {
	p := NewPongSim(PongConfig{Seed: 1})
	obs := p.Reset()
	if !p.StateSpace().Contains(obs) {
		t.Fatalf("reset obs %v not in space", obs)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		o, r, done := p.Step(rng.Intn(3))
		if !p.StateSpace().Contains(o) {
			t.Fatalf("step obs out of space at %d: %v", i, o)
		}
		if r != 0 && r != 1 && r != -1 {
			t.Fatalf("reward %g not in {-1,0,1}", r)
		}
		if done {
			p.Reset()
		}
	}
}

func TestPongEpisodeEndsAtPointsToWin(t *testing.T) {
	p := NewPongSim(PongConfig{Seed: 3, PointsToWin: 2, FrameSkip: 4})
	p.Reset()
	rng := rand.New(rand.NewSource(4))
	total := 0.0
	for i := 0; ; i++ {
		_, r, done := p.Step(rng.Intn(3))
		total += r
		if done {
			a, o := p.agentScore, p.oppScore
			if a != 2 && o != 2 {
				t.Fatalf("episode ended at score %d:%d", a, o)
			}
			return
		}
		if i > 200000 {
			t.Fatal("episode never ended")
		}
	}
}

func TestPongDeterministicUnderSeed(t *testing.T) {
	run := func() []float64 {
		p := NewPongSim(PongConfig{Seed: 7})
		p.Reset()
		var rs []float64
		for i := 0; i < 300; i++ {
			_, r, done := p.Step(i % 3)
			rs = append(rs, r)
			if done {
				p.Reset()
			}
		}
		return rs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at step %d", i)
		}
	}
}

func TestPongPixelRendering(t *testing.T) {
	p := NewPongSim(PongConfig{Obs: PongPixels, Seed: 5})
	obs := p.Reset()
	if !tensor.SameShape(obs.Shape(), []int{84, 84, 1}) {
		t.Fatalf("shape = %v", obs.Shape())
	}
	lit := 0
	for _, v := range obs.Data() {
		if v == 1 {
			lit++
		} else if v != 0 {
			t.Fatal("non-binary pixel")
		}
	}
	// Ball (4 px) + two paddles (~2*2*half) must be visible.
	if lit < 20 {
		t.Fatalf("only %d pixels lit", lit)
	}
}

// TestPongFrameSkipMultipliesFrames: one step with frame skip 4 advances the
// game exactly as four single-frame steps of the same action do, and sums
// their rewards.
func TestPongFrameSkipMultipliesFrames(t *testing.T) {
	skip := NewPongSim(PongConfig{Seed: 6, FrameSkip: 4})
	one := NewPongSim(PongConfig{Seed: 6, FrameSkip: 1})
	skip.Reset()
	one.Reset()
	for i := 0; i < 10; i++ {
		o4, r4, done4 := skip.Step(i % 3)
		var o1 *tensor.Tensor
		r1, done1 := 0.0, false
		for k := 0; k < 4 && !done1; k++ {
			var r float64
			o1, r, done1 = one.Step(i % 3)
			r1 += r
		}
		if !o4.Equal(o1) || r4 != r1 || done4 != done1 {
			t.Fatalf("step %d: skip-4 (%v, %g, %v) vs 4 single frames (%v, %g, %v)", i, o4, r4, done4, o1, r1, done1)
		}
		if done4 {
			return
		}
	}
}

func TestTrackedOpponentBeatsRandomAgent(t *testing.T) {
	// Sanity: a skilled opponent should win most points against noop play.
	p := NewPongSim(PongConfig{Seed: 8, PointsToWin: 5, OpponentSkill: 0.95})
	p.Reset()
	for i := 0; i < 1000000; i++ {
		_, _, done := p.Step(0)
		if done {
			break
		}
	}
	a, o := p.agentScore, p.oppScore
	if o <= a {
		t.Fatalf("noop agent scored %d vs opponent %d", a, o)
	}
}

func TestCartPoleDynamicsAndTermination(t *testing.T) {
	c := NewCartPole(1)
	obs := c.Reset()
	if !tensor.SameShape(obs.Shape(), []int{4}) {
		t.Fatalf("shape = %v", obs.Shape())
	}
	steps := 0
	for {
		_, r, done := c.Step(steps % 2)
		if r != 1 {
			t.Fatalf("reward %g", r)
		}
		steps++
		if done {
			break
		}
		if steps > 300 {
			t.Fatal("no termination")
		}
	}
	if steps < 5 {
		t.Fatalf("fell after only %d steps", steps)
	}
}

func TestGridWorldReachGoal(t *testing.T) {
	g := NewGridWorld(3, 1)
	g.Reset()
	// Optimal path: right, right, down, down.
	total := 0.0
	var done bool
	var r float64
	for _, a := range []int{3, 3, 1, 1} {
		_, r, done = g.Step(a)
		total += r
	}
	if !done {
		t.Fatal("goal not terminal")
	}
	if r != 1 {
		t.Fatalf("goal reward = %g", r)
	}
	if total != 1-0.03 {
		t.Fatalf("return = %g", total)
	}
}

func TestGridWorldWallsAreNoOps(t *testing.T) {
	g := NewGridWorld(3, 1)
	s0 := g.Reset()
	s1, _, _ := g.Step(0) // up from top-left: blocked
	if !s0.Equal(s1) {
		t.Fatal("walked through wall")
	}
}

// Property: grid observations are always one-hot.
func TestGridObsOneHotProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGridWorld(4, seed)
		o := g.Reset()
		for i := 0; i < 30; i++ {
			var done bool
			o, _, done = g.Step(rng.Intn(4))
			ones := 0
			for _, v := range o.Data() {
				if v == 1 {
					ones++
				} else if v != 0 {
					return false
				}
			}
			if ones != 1 {
				return false
			}
			if done {
				o = g.Reset()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorEnvBatchingAndAutoReset(t *testing.T) {
	v := NewVectorEnv(NewGridWorld(2, 1), NewGridWorld(2, 2))
	obs := v.ResetAll()
	if !tensor.SameShape(obs.Shape(), []int{2, 4}) {
		t.Fatalf("shape = %v", obs.Shape())
	}
	// Drive env 0 to its goal (right, down on 2x2).
	v.StepAll([]int{3, 0})
	obs, rewards, terms := v.StepAll([]int{1, 0})
	if terms[0] != 1 {
		t.Fatal("env 0 should have terminated")
	}
	if rewards[0] != 1 {
		t.Fatalf("goal reward = %g", rewards[0])
	}
	if terms[1] != 0 {
		t.Fatal("env 1 should still be running")
	}
	// Post-reset state for env 0 is the start state.
	if obs.At(0, 0) != 1 {
		t.Fatal("env 0 not auto-reset")
	}
	if len(v.FinishedEpisodes()) != 1 {
		t.Fatalf("finished = %d", len(v.FinishedEpisodes()))
	}
	if m, ok := v.MeanFinishedReward(10); !ok || m != rewardsSum(v.FinishedEpisodes()) {
		t.Fatalf("mean = %g ok=%v", m, ok)
	}
}

func rewardsSum(r []float64) float64 {
	s := 0.0
	for _, v := range r {
		s += v
	}
	return s / float64(len(r))
}

func TestLabyrinthSimCostAndInterface(t *testing.T) {
	l := NewLabyrinthSim(100, 1)
	obs := l.Reset()
	if !tensor.SameShape(obs.Shape(), []int{128}) {
		t.Fatalf("shape = %v", obs.Shape())
	}
	if l.ActionSpace().N != 9 {
		t.Fatalf("actions = %d", l.ActionSpace().N)
	}
	for i := 0; i < 10; i++ {
		if _, _, done := l.Step(i % 9); done {
			l.Reset()
		}
	}
}

func TestEnvsImplementInterface(t *testing.T) {
	for _, e := range []Env{
		NewPongSim(PongConfig{Seed: 1}),
		NewCartPole(1),
		NewGridWorld(3, 1),
		NewLabyrinthSim(10, 1),
	} {
		if e.StateSpace() == nil || e.ActionSpace().N <= 0 {
			t.Fatalf("%T: bad spaces", e)
		}
	}
	var _ spaces.Space = NewPongSim(PongConfig{}).StateSpace()
}

func TestFrameStackChannels(t *testing.T) {
	base := NewPongSim(PongConfig{Obs: PongPixels, Seed: 1})
	fs := NewFrameStack(base, 4)
	if !tensor.SameShape(fs.StateSpace().Shape(), []int{84, 84, 4}) {
		t.Fatalf("stacked space = %v", fs.StateSpace().Shape())
	}
	obs := fs.Reset()
	if !tensor.SameShape(obs.Shape(), []int{84, 84, 4}) {
		t.Fatalf("stacked obs = %v", obs.Shape())
	}
	// All four channels initially equal the reset frame.
	for c := 1; c < 4; c++ {
		if obs.At(42, 42, c) != obs.At(42, 42, 0) {
			t.Fatal("initial stack not filled with reset frame")
		}
	}
	// After a step, the newest channel differs from the oldest eventually.
	var done bool
	for i := 0; i < 10 && !done; i++ {
		obs, _, done = fs.Step(1)
	}
	if !tensor.SameShape(obs.Shape(), []int{84, 84, 4}) {
		t.Fatal("shape changed after step")
	}
}

// TestPongLongRallyObsStayInSpace is the serving-admission regression for
// spin accumulation: a perfect opponent plus a ball-tracking agent produces
// maximal-length rallies with many spin-imparting paddle hits. Before the
// |ballVY| cap, the vy feature escaped BoundedFloatBox(-1,1,6) after enough
// hits and spaces.ContainsElement (the serve admission gate) rejected the
// observation; every obs over 1M frames must stay in-space.
func TestPongLongRallyObsStayInSpace(t *testing.T) {
	const frames = 1_000_000
	p := NewPongSim(PongConfig{Seed: 11, OpponentSkill: 1, FrameSkip: 4})
	check := func(o *tensor.Tensor) {
		if !spaces.ContainsElement(p.StateSpace(), o) {
			t.Fatalf("obs out of space: %v", o.Data())
		}
	}
	check(p.Reset())
	for n := 0; n < frames; n += 4 {
		action := 0
		switch {
		case p.agentY < p.ballY-0.01:
			action = 2
		case p.agentY > p.ballY+0.01:
			action = 1
		}
		o, _, done := p.Step(action)
		check(o)
		if done {
			check(p.Reset())
		}
	}
	if math.Abs(p.ballVY) > pongBallMaxVY {
		t.Fatalf("ballVY %g exceeds cap %g", p.ballVY, pongBallMaxVY)
	}
}

// TestPongZeroOpponentSkillHonored pins the sentinel semantics: skill 0 is a
// real configuration (the opponent never tracks), and only a negative value
// requests the default.
func TestPongZeroOpponentSkillHonored(t *testing.T) {
	p := NewPongSim(PongConfig{Seed: 9, OpponentSkill: 0})
	p.Reset()
	for i := 0; i < 2000; i++ {
		if _, _, done := p.Step(i % 3); done {
			p.Reset()
		}
	}
	if p.oppY != 0.5 {
		t.Fatalf("skill-0 opponent moved to %g", p.oppY)
	}
	if d := NewPongSim(PongConfig{OpponentSkill: DefaultPongOpponent}); d.cfg.OpponentSkill != PongDefaultOpponentSkill {
		t.Fatalf("sentinel resolved to %g, want %g", d.cfg.OpponentSkill, PongDefaultOpponentSkill)
	}
	if e := NewPongSim(PongConfig{OpponentSkill: 0.3}); e.cfg.OpponentSkill != 0.3 {
		t.Fatalf("explicit skill overwritten to %g", e.cfg.OpponentSkill)
	}
}

// oneStepEnv finishes an episode on every step with reward 1, 2, 3, … — a
// worst-case completion rate for the finished-episode record.
type oneStepEnv struct{ n float64 }

func (e *oneStepEnv) StateSpace() spaces.Space    { return spaces.NewFloatBox(1) }
func (e *oneStepEnv) ActionSpace() *spaces.IntBox { return spaces.NewIntBox(1) }
func (e *oneStepEnv) Reset() *tensor.Tensor       { return tensor.New(1) }
func (e *oneStepEnv) Step(int) (*tensor.Tensor, float64, bool) {
	e.n++
	return tensor.New(1), e.n, true
}

func TestVectorEnvFinishedRingBoundedAndDrain(t *testing.T) {
	v := NewVectorEnv(&oneStepEnv{})
	total := FinishedWindow + 88
	for i := 0; i < total; i++ {
		v.StepAll([]int{0})
	}
	f := v.FinishedEpisodes()
	if len(f) != FinishedWindow {
		t.Fatalf("retained %d, want bounded at %d", len(f), FinishedWindow)
	}
	// Completion order over the retained window: oldest first.
	if f[0] != float64(total-FinishedWindow+1) || f[len(f)-1] != float64(total) {
		t.Fatalf("window = [%g..%g], want [%d..%d]", f[0], f[len(f)-1], total-FinishedWindow+1, total)
	}
	if m, ok := v.MeanFinishedReward(2); !ok || m != (float64(total)+float64(total-1))/2 {
		t.Fatalf("mean of last 2 = %g ok=%v", m, ok)
	}
}

// mutEnv reuses ONE observation buffer across Reset/Step — the buffer-reuse
// pattern that made FrameStack's aliased frames rewrite stack history.
type mutEnv struct {
	shape []int
	buf   *tensor.Tensor
	steps int
}

func (m *mutEnv) StateSpace() spaces.Space    { return spaces.NewFloatBox(m.shape...) }
func (m *mutEnv) ActionSpace() *spaces.IntBox { return spaces.NewIntBox(2) }
func (m *mutEnv) fill(v float64) *tensor.Tensor {
	if m.buf == nil {
		m.buf = tensor.New(m.shape...)
	}
	d := m.buf.Data()
	for i := range d {
		d[i] = v
	}
	return m.buf
}
func (m *mutEnv) Reset() *tensor.Tensor { m.steps = 0; return m.fill(0) }
func (m *mutEnv) Step(int) (*tensor.Tensor, float64, bool) {
	m.steps++
	return m.fill(float64(m.steps)), 0, false
}

// TestFrameStackPostResetMutation proves the stack holds private copies: an
// env mutating its returned obs buffer in place must not rewrite frames the
// stack already captured. Covers rank-1 and rank-3 observations.
func TestFrameStackPostResetMutation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape []int
	}{
		{"rank1", []int{3}},
		{"rank3", []int{2, 2, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := NewFrameStack(&mutEnv{shape: tc.shape}, 3)
			obs := fs.Reset()
			for _, v := range obs.Data() {
				if v != 0 {
					t.Fatalf("reset stack = %v, want zeros", obs.Data())
				}
			}
			// Step twice: env rewrites the SAME buffer to 1 then 2.
			fs.Step(0)
			obs, _, _ = fs.Step(0)
			mk := func(v float64) *tensor.Tensor {
				f := tensor.New(tc.shape...)
				d := f.Data()
				for i := range d {
					d[i] = v
				}
				return f
			}
			want := tensor.Concat(-1, mk(0), mk(1), mk(2))
			for i, v := range obs.Data() {
				if w := want.Data()[i]; v != w {
					t.Fatalf("frame history rewritten: data[%d] = %g, want %g (full %v)", i, v, w, obs.Data())
				}
			}
		})
	}
}

// TestVectorEnvBufferReuse pins the documented borrowing contract: in steady
// state States/StepAll hand back the SAME batch tensor and reward/terminal
// slices (no per-step allocation), each call overwrites them with current
// values, and terminal flags from a previous step never leak into the next.
func TestVectorEnvBufferReuse(t *testing.T) {
	v := NewVectorEnv(&mutEnv{shape: []int{3}}, &mutEnv{shape: []int{3}})
	first := v.ResetAll()
	if got := v.States(); got != first {
		t.Fatal("States allocated a fresh batch instead of reusing the buffer")
	}
	obs1, rew1, term1 := v.StepAll([]int{0, 0})
	if obs1 != first {
		t.Fatal("StepAll allocated a fresh batch instead of reusing the buffer")
	}
	obs2, rew2, term2 := v.StepAll([]int{0, 0})
	if obs2 != obs1 || &rew2[0] != &rew1[0] || &term2[0] != &term1[0] {
		t.Fatal("second StepAll did not reuse the output buffers")
	}
	// mutEnv observations equal the per-env step counter, so the borrowed
	// buffer must now hold 2s everywhere — the step-1 values were overwritten.
	for i, x := range obs1.Data() {
		if x != 2 {
			t.Fatalf("batch[%d] = %g after 2 steps, want 2", i, x)
		}
	}

	// Terminal flags must be recomputed, not sticky: drive a 2x2 GridWorld to
	// its goal (terminal), then step again and require the flag cleared.
	g := NewVectorEnv(NewGridWorld(2, 1))
	g.ResetAll()
	g.StepAll([]int{3})
	_, _, term := g.StepAll([]int{1})
	if term[0] != 1 {
		t.Fatal("goal step should terminate")
	}
	_, _, term = g.StepAll([]int{0})
	if term[0] != 0 {
		t.Fatal("terminal flag leaked into the next step through the reused buffer")
	}
}

// TestFrameStackStableUnderVectorEnvReuse drives FrameStack-wrapped envs
// through a VectorEnv and checks that a retained (copied) stacked observation
// keeps its frame history while the VectorEnv keeps overwriting its borrowed
// batch buffer — the composition the worker relies on.
func TestFrameStackStableUnderVectorEnvReuse(t *testing.T) {
	v := NewVectorEnv(NewFrameStack(&mutEnv{shape: []int{2}}, 3))
	v.ResetAll()
	v.StepAll([]int{0})
	obs, _, _ := v.StepAll([]int{0}) // stack now holds frames 0,1,2
	row := tensor.Row(obs, 0)        // copy, as the borrowing contract requires
	snap := append([]float64(nil), row.Data()...)
	for s := 0; s < 3; s++ {
		v.StepAll([]int{0})
	}
	want := []float64{0, 0, 1, 1, 2, 2}
	for i, x := range snap {
		if x != want[i] {
			t.Fatalf("stacked frames = %v, want %v", snap, want)
		}
	}
	for i, x := range row.Data() {
		if x != snap[i] {
			t.Fatalf("retained row mutated at %d after further steps", i)
		}
	}
}

func TestFrameStackFeatures(t *testing.T) {
	fs := NewFrameStack(NewCartPole(1), 2)
	if !tensor.SameShape(fs.StateSpace().Shape(), []int{8}) {
		t.Fatalf("stacked space = %v", fs.StateSpace().Shape())
	}
	obs := fs.Reset()
	prev := obs.Clone()
	obs, _, _ = fs.Step(0)
	// The first half of the new stack equals the second half of the old.
	for i := 0; i < 4; i++ {
		if obs.Data()[i] != prev.Data()[4+i] {
			t.Fatal("stack did not roll")
		}
	}
}

// TestNewVectorEnvRejectsZeroEnvs: the zero-env vector has no element shape
// to batch over and must fail loudly at construction, not inside the first
// States call.
func TestNewVectorEnvRejectsZeroEnvs(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic from NewVectorEnv()")
		}
		if !strings.Contains(r.(string), "at least one environment") {
			t.Fatalf("unhelpful panic message: %v", r)
		}
	}()
	NewVectorEnv()
}

// blockingEnv parks in Step until released, so a second VectorEnv call can
// be provoked while the first is in flight.
type blockingEnv struct {
	enter chan struct{} // signals Step was entered
	gate  chan struct{} // Step blocks until this closes
}

func (e *blockingEnv) StateSpace() spaces.Space    { return spaces.NewFloatBox(1) }
func (e *blockingEnv) ActionSpace() *spaces.IntBox { return spaces.NewIntBox(1) }
func (e *blockingEnv) Reset() *tensor.Tensor       { return tensor.New(1) }
func (e *blockingEnv) Step(int) (*tensor.Tensor, float64, bool) {
	e.enter <- struct{}{}
	<-e.gate
	return tensor.New(1), 0, false
}

// TestVectorEnvConcurrentMisuseGuard: VectorEnv is single-caller — a
// StepAll racing another StepAll must panic with a diagnostic instead of
// silently corrupting the shared output buffers.
func TestVectorEnvConcurrentMisuseGuard(t *testing.T) {
	be := &blockingEnv{enter: make(chan struct{}, 1), gate: make(chan struct{})}
	v := NewVectorEnv(be)
	v.ResetAll()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v.StepAll([]int{0})
	}()
	<-be.enter // first StepAll is now mid-flight

	done := make(chan interface{}, 1)
	go func() {
		defer func() { done <- recover() }()
		v.StepAll([]int{0})
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("concurrent StepAll did not panic")
		}
		if !strings.Contains(r.(string), "concurrent VectorEnv call") {
			t.Fatalf("unhelpful panic message: %v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent StepAll neither panicked nor returned")
	}
	close(be.gate)
	wg.Wait()
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPongFlatRendererBitEqual pins the flat renderer to the naive one over
// a long random playout: every pixel frame produced by Step must equal the
// freshly drawn RenderNaive frame for the same simulator state.
func TestPongFlatRendererBitEqual(t *testing.T) {
	p := NewPongSim(PongConfig{Obs: PongPixels, FrameSkip: 2, PointsToWin: 3,
		OpponentSkill: DefaultPongOpponent, Seed: 11})
	rng := rand.New(rand.NewSource(3))
	obs := p.Reset()
	if !equalF64(obs.Data(), p.RenderNaive().Data()) {
		t.Fatal("Reset frame differs from RenderNaive")
	}
	for s := 0; s < 3000; s++ {
		obs, _, done := p.Step(rng.Intn(3))
		naive := p.RenderNaive()
		if !tensor.SameShape(obs.Shape(), naive.Shape()) {
			t.Fatalf("step %d: shape %v != %v", s, obs.Shape(), naive.Shape())
		}
		if !equalF64(obs.Data(), naive.Data()) {
			t.Fatalf("step %d: flat frame differs from RenderNaive", s)
		}
		if done {
			obs = p.Reset()
			if !equalF64(obs.Data(), p.RenderNaive().Data()) {
				t.Fatalf("step %d: post-reset frame differs from RenderNaive", s)
			}
		}
	}
}

// TestPongRenderAllocFree: after warm-up, pixel-mode stepping must not
// allocate new frames (the reused-buffer hot path).
func TestPongRenderAllocFree(t *testing.T) {
	p := NewPongSim(PongConfig{Obs: PongPixels, FrameSkip: 1, OpponentSkill: DefaultPongOpponent, Seed: 5})
	p.Reset()
	allocs := testing.AllocsPerRun(200, func() {
		p.Step(1)
	})
	if allocs > 0 {
		t.Fatalf("pixel Step allocates %.1f objects/op, want 0", allocs)
	}
}
