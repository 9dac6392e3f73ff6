package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/components/nn"
	"rlgraph/internal/components/optimizers"
	"rlgraph/internal/envs"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// doubler is a synthetic Runner: out = 2*in, same shape. batchSizes records
// every dispatched batch size (only the batcher goroutine appends).
type doubler struct {
	mu         sync.Mutex
	batchSizes []int
}

func (d *doubler) run(batch *tensor.Tensor) (*tensor.Tensor, error) {
	d.mu.Lock()
	d.batchSizes = append(d.batchSizes, batch.Dim(0))
	d.mu.Unlock()
	out := batch.Clone()
	for i := range out.Data() {
		out.Data()[i] *= 2
	}
	return out, nil
}

// gatedRunner blocks each Runner call on gate after signalling entered, then
// runs inner (nil: echo the batch).
type gatedRunner struct {
	entered chan struct{}
	gate    chan struct{}
	inner   Runner
}

func newGatedRunner() *gatedRunner {
	return &gatedRunner{entered: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (g *gatedRunner) run(batch *tensor.Tensor) (*tensor.Tensor, error) {
	g.entered <- struct{}{}
	<-g.gate
	if g.inner != nil {
		return g.inner(batch)
	}
	return batch.Clone(), nil
}

// queueBehindFirstBatch blocks a one-row opening batch inside g, submits one
// request per observation and waits until all of them are queued: releasing
// g then yields a second batch of exactly those rows — the batch that
// accumulated while the first was in flight. wait collects their results.
func queueBehindFirstBatch(t *testing.T, s *Service, g *gatedRunner, obs []*tensor.Tensor) (wait func() ([]*tensor.Tensor, []error)) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Act(obs[0], time.Time{}); err != nil {
			t.Errorf("opening request: %v", err)
		}
	}()
	waitEntered(t, g)
	outs, errs := make([]*tensor.Tensor, len(obs)), make([]error, len(obs))
	for i := range obs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = s.Act(obs[i], time.Time{})
		}(i)
	}
	waitFor(t, "requests queued behind the first batch", func() bool { return s.QueueDepth() == len(obs) })
	return func() ([]*tensor.Tensor, []error) { wg.Wait(); return outs, errs }
}

func waitEntered(t *testing.T, g *gatedRunner) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("runner never entered")
	}
}

// waitFor polls cond until it holds or the test deadline budget runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func obsOf(vals ...float64) *tensor.Tensor {
	return tensor.FromSlice(vals, len(vals))
}

// TestCoalescesConcurrentRequests: the requests that arrive while a batch is
// in flight form the next batch, closed by reaching MaxBatch.
func TestCoalescesConcurrentRequests(t *testing.T) {
	d := &doubler{}
	g := newGatedRunner()
	g.inner = d.run
	const n = 8
	s := New(g.run, Config{MaxBatch: n, FlushLatency: time.Hour, ElemShape: []int{3}})
	defer s.Close()

	obs := make([]*tensor.Tensor, n)
	for i := range obs {
		obs[i] = obsOf(float64(i), 0, 1)
	}
	wait := queueBehindFirstBatch(t, s, g, obs)
	close(g.gate)
	outs, errs := wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want := []float64{2 * float64(i), 0, 2}
		for j, v := range outs[i].Data() {
			if v != want[j] {
				t.Fatalf("request %d: got %v want %v", i, outs[i].Data(), want)
			}
		}
	}
	m := s.Metrics()
	if m.Batches != 2 || len(d.batchSizes) != 2 || d.batchSizes[1] != n {
		t.Fatalf("expected the opener and one coalesced batch of %d, got Batches=%d sizes %v", n, m.Batches, d.batchSizes)
	}
	if m.Admitted != n+1 || m.Completed != n+1 {
		t.Fatalf("Admitted=%d Completed=%d, want %d/%d", m.Admitted, m.Completed, n+1, n+1)
	}
	// The opener lands in the bucket with bound 1, the batch of 8 in bound 8.
	if m.BatchHist[0] != 1 || m.BatchHist[3] != 1 {
		t.Fatalf("BatchHist=%v, want one count each in buckets ≤1 and ≤8", m.BatchHist)
	}
}

// TestPartialBatchFlushesOnIdle: a batch far below MaxBatch closes as soon
// as the queue stops growing — FlushLatency (an hour here) is never waited
// out.
func TestPartialBatchFlushesOnIdle(t *testing.T) {
	d := &doubler{}
	g := newGatedRunner()
	g.inner = d.run
	const n = 5
	s := New(g.run, Config{MaxBatch: 64, FlushLatency: time.Hour, ElemShape: []int{2}})
	defer s.Close()

	obs := make([]*tensor.Tensor, n)
	for i := range obs {
		obs[i] = obsOf(3, float64(i))
	}
	wait := queueBehindFirstBatch(t, s, g, obs)
	close(g.gate)
	outs, errs := wait()
	for i := range obs {
		if errs[i] != nil || outs[i].Data()[0] != 6 || outs[i].Data()[1] != 2*float64(i) {
			t.Fatalf("request %d: out=%v err=%v", i, outs[i], errs[i])
		}
	}
	if len(d.batchSizes) != 2 || d.batchSizes[1] != n {
		t.Fatalf("batch sizes %v, want [1 %d]", d.batchSizes, n)
	}
}

// TestLoneRequestIsNotHeld: an idle service answers a lone request at once,
// whatever FlushLatency says.
func TestLoneRequestIsNotHeld(t *testing.T) {
	d := &doubler{}
	s := New(d.run, Config{MaxBatch: 64, FlushLatency: time.Second, ElemShape: []int{2}})
	defer s.Close()

	start := time.Now()
	out, err := s.Act(obsOf(3, 4), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Fatalf("a lone request on an idle service took %v", took)
	}
	if out.Data()[0] != 6 || out.Data()[1] != 8 {
		t.Fatalf("got %v", out.Data())
	}
	if m := s.Metrics(); m.Batches != 1 || m.MeanBatch != 1 {
		t.Fatalf("expected a single size-1 batch, got Batches=%d MeanBatch=%.1f", m.Batches, m.MeanBatch)
	}
}

// TestTrickleCannotHoldBatchPastFlushLatency: a producer that makes the
// queue grow between any two looks of the batcher keeps a non-full batch
// open, but only up to FlushLatency. The test goroutine is the batcher. On
// one P its yield hands the CPU to the producer, which appends until the
// runtime preempts it, so every look sees growth and only the ceiling can
// close the batch. (One yield in 61 the scheduler hands the CPU straight
// back; that look legitimately closes the batch early, hence the attempts.)
func TestTrickleCannotHoldBatchPastFlushLatency(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const flush = 5 * time.Millisecond
	const limit = 1 << 23 // appends before the producer gives up, ~100x what 5 ms take
	for attempt := 0; attempt < 20; attempt++ {
		s := &Service{cfg: Config{MaxBatch: 1 << 30, FlushLatency: flush}}
		r := &request{}
		s.q = append(s.q, r)
		var stop atomic.Bool
		producer := make(chan struct{})
		go func() {
			defer close(producer)
			for i := 0; i < limit && !stop.Load(); i++ {
				s.mu.Lock()
				s.q = append(s.q, r)
				s.mu.Unlock()
			}
		}()
		start := time.Now()
		rows := len(s.gather())
		held := time.Since(start)
		stop.Store(true)
		<-producer
		if held < flush {
			continue // closed by a look that saw no growth
		}
		// Held to the ceiling. Had the ceiling not closed it, the batch would
		// have stayed open until the producer gave up.
		if rows >= limit {
			t.Fatalf("the batch stayed open for %v and %d rows, until the trickle ended; FlushLatency is %v", held, rows, flush)
		}
		return
	}
	t.Fatalf("no batch was held up to FlushLatency = %v; the test exercised no ceiling", flush)
}

// buildServeDQN builds a small static dueling DQN over GridWorld for the
// differential tests.
func buildServeDQN(t testing.TB) (*agents.DQN, *envs.GridWorld) {
	t.Helper()
	env := envs.NewGridWorld(5, 1)
	cfg := agents.DQNConfig{
		Backend:         "static",
		Network:         []nn.LayerSpec{{Type: "dense", Units: 32, Activation: "relu"}},
		Dueling:         true,
		DuelingHidden:   16,
		Gamma:           0.97,
		Memory:          agents.MemoryConfig{Type: "replay", Capacity: 256},
		Optimizer:       optimizers.Config{Type: "adam", LearningRate: 1e-3},
		Exploration:     agents.ExplorationConfig{Initial: 1, Final: 0.05, DecaySteps: 1000},
		BatchSize:       16,
		TargetSyncEvery: 50,
		Seed:            7,
	}
	a, err := agents.NewDQN(cfg, env.StateSpace(), env.ActionSpace())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Build(); err != nil {
		t.Fatal(err)
	}
	return a, env
}

// gridObservations walks the env to collect n distinct observations.
func gridObservations(env *envs.GridWorld, n int) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(42))
	obs := make([]*tensor.Tensor, 0, n)
	cur := env.Reset()
	for len(obs) < n {
		obs = append(obs, cur.Clone())
		next, _, done := env.Step(rng.Intn(4))
		if done {
			next = env.Reset()
		}
		cur = next
	}
	return obs
}

// TestDifferentialBatchedVsSingle is the acceptance-criteria differential
// test: serving observations through coalesced micro-batches must produce
// bit-for-bit the same greedy actions and Q-value rows as feeding each
// observation alone as a [1, elem] batch.
func TestDifferentialBatchedVsSingle(t *testing.T) {
	a, env := buildServeDQN(t)
	elem := a.StateSpace().Shape()
	const n = 13
	obs := gridObservations(env, n)

	// Reference: one single-row Execute per observation.
	singleActions := make([]float64, n)
	singleQ := make([][]float64, n)
	for i, o := range obs {
		in, err := tensor.StackRows(elem, []*tensor.Tensor{o})
		if err != nil {
			t.Fatal(err)
		}
		outs, err := a.Executor().Execute("get_actions_greedy", in)
		if err != nil {
			t.Fatal(err)
		}
		singleActions[i] = outs[0].Data()[0]
		qOuts, err := a.Executor().Execute("get_q_values", in)
		if err != nil {
			t.Fatal(err)
		}
		singleQ[i] = append([]float64(nil), qOuts[0].Data()...)
	}

	// Batched: all n requests coalesce into one compiled-plan call — they
	// queue up while the batcher is parked in a barrier.
	runDifferential := func(api string, check func(i int, row *tensor.Tensor)) {
		s := NewForExecutor(a.Executor(), api, a.StateSpace(), Config{MaxBatch: n})
		defer s.Close()
		parked, release := make(chan struct{}), make(chan struct{})
		go s.Barrier(func() error { close(parked); <-release; return nil })
		<-parked
		var wg sync.WaitGroup
		rows := make([]*tensor.Tensor, n)
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rows[i], errs[i] = s.Act(obs[i], time.Time{})
			}(i)
		}
		waitFor(t, "requests queued behind the barrier", func() bool { return s.QueueDepth() == n })
		close(release)
		wg.Wait()
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("%s request %d: %v", api, i, errs[i])
			}
			check(i, rows[i])
		}
		m := s.Metrics()
		if m.Batches != 1 {
			t.Fatalf("%s: expected one coalesced batch, got %d", api, m.Batches)
		}
	}

	runDifferential("get_actions_greedy", func(i int, row *tensor.Tensor) {
		if got := row.Data()[0]; got != singleActions[i] {
			t.Fatalf("action %d: batched %v != single %v", i, got, singleActions[i])
		}
	})
	runDifferential("get_q_values", func(i int, row *tensor.Tensor) {
		if len(row.Data()) != len(singleQ[i]) {
			t.Fatalf("q row %d: got %d values, want %d", i, len(row.Data()), len(singleQ[i]))
		}
		for j, v := range row.Data() {
			// Bit-for-bit: float64 equality, no tolerance.
			if v != singleQ[i][j] {
				t.Fatalf("q[%d][%d]: batched %v != single %v", i, j, v, singleQ[i][j])
			}
		}
	})
}

func TestBackpressureShed(t *testing.T) {
	g := newGatedRunner()
	s := New(g.run, Config{MaxBatch: 1, FlushLatency: time.Microsecond, QueueDepth: 1, ElemShape: []int{2}})
	defer func() { close(g.gate); s.Close() }()

	results := make(chan error, 2)
	go func() { _, err := s.Act(obsOf(1, 2), time.Time{}); results <- err }()
	waitEntered(t, g) // first request is in flight, queue empty

	go func() { _, err := s.Act(obsOf(3, 4), time.Time{}); results <- err }()
	waitFor(t, "second request queued", func() bool { return s.QueueDepth() == 1 })

	// Queue full, Block off: third request sheds immediately.
	if _, err := s.Act(obsOf(5, 6), time.Time{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}

	g.gate <- struct{}{} // release first batch
	waitEntered(t, g)    // second request's batch enters
	g.gate <- struct{}{}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued request failed: %v", err)
		}
	}
	m := s.Metrics()
	if m.Shed != 1 || m.Completed != 2 {
		t.Fatalf("Shed=%d Completed=%d, want 1/2", m.Shed, m.Completed)
	}
}

func TestBackpressureBlock(t *testing.T) {
	g := newGatedRunner()
	s := New(g.run, Config{MaxBatch: 1, FlushLatency: time.Microsecond, QueueDepth: 1, Block: true, ElemShape: []int{2}})
	defer s.Close() // gate is closed in the body once the queue is primed

	results := make(chan error, 3)
	go func() { _, err := s.Act(obsOf(1, 2), time.Time{}); results <- err }()
	waitEntered(t, g)
	go func() { _, err := s.Act(obsOf(3, 4), time.Time{}); results <- err }()
	waitFor(t, "second request queued", func() bool { return s.QueueDepth() == 1 })

	// Queue full, Block on: third caller waits for space instead of shedding.
	third := make(chan error, 1)
	go func() { _, err := s.Act(obsOf(5, 6), time.Time{}); third <- err }()
	select {
	case err := <-third:
		t.Fatalf("blocked admitter returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(g.gate) // drain everything
	if err := <-third; err != nil {
		t.Fatalf("blocked request failed: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("request failed: %v", err)
		}
	}
	m := s.Metrics()
	if m.Shed != 0 || m.Completed != 3 {
		t.Fatalf("Shed=%d Completed=%d, want 0/3", m.Shed, m.Completed)
	}
}

func TestBadObservationsRejected(t *testing.T) {
	d := &doubler{}
	s := New(d.run, Config{Elem: spaces.NewBoundedFloatBox(0, 1, 3)})
	defer s.Close()

	cases := []*tensor.Tensor{
		nil,            // nil tensor
		obsOf(0, 1),    // wrong shape
		obsOf(0, 1, 2), // out of bounds
	}
	for i, bad := range cases {
		if _, err := s.Act(bad, time.Time{}); !errors.Is(err, ErrBadObservation) {
			t.Fatalf("case %d: got %v, want ErrBadObservation", i, err)
		}
	}
	// A valid observation still serves.
	if _, err := s.Act(obsOf(0, 0.5, 1), time.Time{}); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Invalid != int64(len(cases)) || m.Admitted != 1 {
		t.Fatalf("Invalid=%d Admitted=%d, want %d/1", m.Invalid, m.Admitted, len(cases))
	}
}

func TestRunnerErrorPropagates(t *testing.T) {
	boom := fmt.Errorf("backend exploded")
	s := New(func(*tensor.Tensor) (*tensor.Tensor, error) { return nil, boom }, Config{ElemShape: []int{1}})
	defer s.Close()

	if _, err := s.Act(obsOf(1), time.Time{}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want runner error", err)
	}
	m := s.Metrics()
	if m.Failed != 1 || m.Completed != 0 {
		t.Fatalf("Failed=%d Completed=%d, want 1/0", m.Failed, m.Completed)
	}
}

func TestRunnerRowMismatchFails(t *testing.T) {
	s := New(func(b *tensor.Tensor) (*tensor.Tensor, error) {
		return tensor.New(b.Dim(0)+1, 1), nil // wrong leading dim
	}, Config{ElemShape: []int{1}})
	defer s.Close()

	_, err := s.Act(obsOf(1), time.Time{})
	if err == nil {
		t.Fatal("expected an error for a row-count mismatch")
	}
}

// TestMetricsInvariantUnderLoad hammers the service with mixed deadlines and
// checks exactly-once accounting: every admitted request resolves as exactly
// one of Completed, DeadlineMisses, or Failed.
func TestMetricsInvariantUnderLoad(t *testing.T) {
	run := func(b *tensor.Tensor) (*tensor.Tensor, error) {
		time.Sleep(200 * time.Microsecond)
		return b.Clone(), nil
	}
	s := New(run, Config{
		MaxBatch:     4,
		FlushLatency: 200 * time.Microsecond,
		QueueDepth:   8, // small: force shedding under burst
		ElemShape:    []int{2},
	})

	const clients, perClient = 8, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				var deadline time.Time
				switch rng.Intn(3) {
				case 0: // tight deadline: some of these will miss
					deadline = time.Now().Add(time.Duration(rng.Intn(2000)) * time.Microsecond)
				case 1: // generous deadline
					deadline = time.Now().Add(time.Second)
				}
				s.Act(obsOf(float64(c), float64(i)), deadline)
			}
		}(c)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	m := s.Metrics()
	total := int64(clients * perClient)
	if m.Admitted+m.Shed+m.Invalid != total {
		t.Fatalf("admission accounting: Admitted=%d Shed=%d Invalid=%d, sum != %d",
			m.Admitted, m.Shed, m.Invalid, total)
	}
	if m.Admitted != m.Completed+m.DeadlineMisses+m.Failed {
		t.Fatalf("resolution accounting: Admitted=%d != Completed=%d + Misses=%d + Failed=%d",
			m.Admitted, m.Completed, m.DeadlineMisses, m.Failed)
	}
	if m.Completed > 0 && (m.P50 <= 0 || m.P99 < m.P50) {
		t.Fatalf("latency quantiles inconsistent: p50=%v p99=%v", m.P50, m.P99)
	}
	if m.Batches == 0 || m.MeanBatch <= 0 {
		t.Fatalf("batch metrics empty: Batches=%d MeanBatch=%v", m.Batches, m.MeanBatch)
	}
}
