package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlgraph/internal/serve"
	"rlgraph/internal/tensor"
)

// fakeFleet builds synthetic replicas whose runner scales the observation
// by the replica's current "weights" (a single scale factor installed via
// the swap sink), with per-replica fault injection: forced runner errors
// and artificial latency. scaleFail is a poison weight value whose
// installation succeeds but whose serving always errors — the shape of a
// bad-but-loadable snapshot the publisher guard must catch; scaleReject is
// refused by the weight sink at install time.
const (
	scaleFail   = 666.0
	scaleReject = -1.0
)

type fakeFleet struct {
	mu     sync.Mutex
	builds map[int]int

	fail [8]atomic.Bool
	slow [8]atomic.Int64 // per-batch sleep, ns
}

func newFakeFleet() *fakeFleet { return &fakeFleet{builds: make(map[int]int)} }

func (f *fakeFleet) buildCount(i int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.builds[i]
}

func (f *fakeFleet) build(i int) (serve.Runner, func(map[string]*tensor.Tensor) error, error) {
	f.mu.Lock()
	f.builds[i]++
	f.mu.Unlock()
	var scale atomic.Value
	scale.Store(1.0) // fresh build serves the identity weights
	run := func(batch *tensor.Tensor) (*tensor.Tensor, error) {
		if f.fail[i].Load() {
			return nil, fmt.Errorf("replica %d injected failure", i)
		}
		if d := f.slow[i].Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		s := scale.Load().(float64)
		if s == scaleFail {
			return nil, fmt.Errorf("replica %d poisoned weights", i)
		}
		out := batch.Clone()
		for j, v := range out.Data() {
			out.Data()[j] = v * s
		}
		return out, nil
	}
	setW := func(w map[string]*tensor.Tensor) error {
		t := w["scale"]
		if t == nil {
			return errors.New("snapshot missing scale")
		}
		if t.Data()[0] == scaleReject {
			return errors.New("weight sink rejects this snapshot")
		}
		scale.Store(t.Data()[0])
		return nil
	}
	return run, setW, nil
}

func scaleWeights(s float64) map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{"scale": tensor.Scalar(s)}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// checkIdentities asserts the exactly-once accounting invariants at
// quiescence (polling, because abandoned-attempt drains lag resolution).
func checkIdentities(t *testing.T, rt *Router) Metrics {
	t.Helper()
	var m Metrics
	waitFor(t, 5*time.Second, "accounting identities", func() bool {
		m = rt.Metrics()
		return m.Routed == m.Completed+m.RetriedAway+m.Misses+m.Failed &&
			m.Requests == m.Completed+m.Misses+m.Failed+m.Unroutable
	})
	return m
}

func newTestRouter(t *testing.T, f *fakeFleet, cfg Config) *Router {
	t.Helper()
	if cfg.Build == nil {
		cfg.Build = f.build
	}
	if cfg.Serve.ElemShape == nil {
		cfg.Serve.ElemShape = []int{2}
	}
	if cfg.Serve.MaxBatch == 0 {
		cfg.Serve.MaxBatch = 8
	}
	if cfg.Serve.FlushLatency == 0 {
		cfg.Serve.FlushLatency = 200 * time.Microsecond
	}
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = 2 * time.Millisecond
	}
	if cfg.RestartBackoff == 0 {
		cfg.RestartBackoff = time.Millisecond
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	})
	return rt
}

func obsOf(a, b float64) *tensor.Tensor { return tensor.FromSlice([]float64{a, b}, 2) }

// TestRoutingBalancesLoad drives concurrent clients at a 3-replica fleet
// and asserts every replica takes traffic, every request completes, and the
// accounting identities hold.
func TestRoutingBalancesLoad(t *testing.T) {
	f := newFakeFleet()
	rt := newTestRouter(t, f, Config{Replicas: 3})

	const clients, perClient = 8, 50
	var wg sync.WaitGroup
	var failures atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				in := obsOf(rng.Float64(), rng.Float64())
				out, err := rt.Act(in, time.Time{})
				if err != nil {
					failures.Add(1)
					continue
				}
				if out.Data()[0] != in.Data()[0] {
					t.Errorf("identity weights: got %v want %v", out.Data()[0], in.Data()[0])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed on an all-healthy fleet", failures.Load())
	}
	m := checkIdentities(t, rt)
	if m.Completed != clients*perClient {
		t.Fatalf("completed %d, want %d", m.Completed, clients*perClient)
	}
	for i, r := range m.Replicas {
		if r.Serve.Completed == 0 {
			t.Errorf("replica %d served no traffic: load balancing is broken", i)
		}
	}
}

// TestRetryFailsOverAndBreakerEjects poisons one replica's runner: requests
// must still succeed via retry on the healthy replica, the breaker must
// eject the failing replica, and a recovered replica must be re-admitted by
// a probe.
func TestRetryFailsOverAndBreakerEjects(t *testing.T) {
	f := newFakeFleet()
	rt := newTestRouter(t, f, Config{Replicas: 2, EjectAfter: 3})

	f.fail[0].Store(true)
	for i := 0; i < 40; i++ {
		if _, err := rt.Act(obsOf(float64(i), 1), time.Time{}); err != nil {
			t.Fatalf("request %d failed despite a healthy replica: %v", i, err)
		}
	}
	waitFor(t, 3*time.Second, "replica 0 ejection", func() bool {
		return rt.Metrics().Ejections >= 1 && rt.replicas[0].state.Load() == stateEjected
	})

	// Recovery: probes re-admit the replica once its runner heals.
	f.fail[0].Store(false)
	waitFor(t, 3*time.Second, "replica 0 re-admission", func() bool {
		return rt.replicas[0].state.Load() == stateHealthy
	})
	if m := rt.Metrics(); m.Readmissions < 1 {
		t.Fatalf("expected at least one re-admission, got %+v", m)
	}
	checkIdentities(t, rt)
}

// TestMaxRetriesBoundsAttempts: with every runner failing, a request is
// re-routed MaxRetries times and no more, however many untried replicas are
// left — on the inline and on the hedged path.
func TestMaxRetriesBoundsAttempts(t *testing.T) {
	for _, hedge := range []bool{false, true} {
		t.Run(fmt.Sprintf("hedge=%v", hedge), func(t *testing.T) {
			f := newFakeFleet()
			for i := 0; i < 4; i++ {
				f.fail[i].Store(true)
			}
			rt := newTestRouter(t, f, Config{
				Replicas: 4, MaxRetries: 1, EjectAfter: 100, ProbeEvery: time.Hour,
				Hedge: hedge, HedgeAfter: time.Hour, // the hedge itself never fires
			})
			if _, err := rt.Act(obsOf(1, 1), time.Time{}); err == nil {
				t.Fatal("request succeeded on a fleet of failing runners")
			}
			m := checkIdentities(t, rt)
			if m.Routed != 2 || m.Retries != 1 || m.RetriedAway != 1 || m.Failed != 1 {
				t.Fatalf("Routed=%d Retries=%d RetriedAway=%d Failed=%d, want 2/1/1/1", m.Routed, m.Retries, m.RetriedAway, m.Failed)
			}
		})
	}
}

// TestRoutingAllocatesNothing: without a hedge to race, a request runs on
// its caller's goroutine and the router adds no allocation to what the
// replica's service makes — no goroutine closure, results channel, tried map
// or tie-break set (both replicas idle, so every pick is a load tie).
func TestRoutingAllocatesNothing(t *testing.T) {
	f := newFakeFleet()
	rt := newTestRouter(t, f, Config{Replicas: 2, ProbeEvery: time.Hour})
	obs := obsOf(1, 2)
	svc := rt.replicas[0].svc.Load()
	direct := testing.AllocsPerRun(1000, func() {
		if _, _, err := svc.ActVersion(obs, time.Time{}); err != nil {
			t.Fatal(err)
		}
	})
	routed := testing.AllocsPerRun(1000, func() {
		if _, _, err := rt.ActVersion(obs, time.Time{}); err != nil {
			t.Fatal(err)
		}
	})
	if routed > direct {
		t.Fatalf("a routed request makes %.0f allocations, the service alone %.0f", routed, direct)
	}
}

// TestKillRebuildsWithSnapshot kills a replica mid-fleet and asserts the
// supervisor rebuilds it from the factory AND re-installs the fleet's
// current weight snapshot, so the rebuilt replica rejoins serving the same
// version as its peers (not its factory-fresh weights).
func TestKillRebuildsWithSnapshot(t *testing.T) {
	f := newFakeFleet()
	rt := newTestRouter(t, f, Config{Replicas: 2})

	if err := rt.SwapAll(scaleWeights(3), 7); err != nil {
		t.Fatalf("SwapAll: %v", err)
	}
	if err := rt.Kill(0); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	// The survivor keeps serving throughout.
	for i := 0; i < 20; i++ {
		out, v, err := rt.ActVersion(obsOf(2, 0), time.Time{})
		if err != nil {
			t.Fatalf("request during outage: %v", err)
		}
		if v != 7 || out.Data()[0] != 6 {
			t.Fatalf("survivor serving wrong snapshot: v=%d out=%v", v, out.Data()[0])
		}
	}
	waitFor(t, 3*time.Second, "replica 0 rebuild", func() bool {
		return f.buildCount(0) >= 2 && rt.replicas[0].state.Load() == stateHealthy
	})
	m := rt.Metrics()
	if m.Restarts < 1 || m.Recoveries < 1 {
		t.Fatalf("expected restart+recovery, got %+v", m)
	}
	if got := m.Replicas[0].Version; got != 7 {
		t.Fatalf("rebuilt replica serves version %d, want snapshot version 7", got)
	}
	// And it serves the snapshot's weights, not factory-fresh ones.
	waitFor(t, 3*time.Second, "rebuilt replica taking traffic", func() bool {
		return rt.Metrics().Replicas[0].Serve.Completed > 0
	})
	checkIdentities(t, rt)
}

// TestHedgedRequestRaces puts both replicas well above the hedge delay and
// asserts a hedge fires, the request completes once, and the losing attempt
// is accounted retried-away.
func TestHedgedRequestRaces(t *testing.T) {
	f := newFakeFleet()
	f.slow[0].Store(int64(5 * time.Millisecond))
	f.slow[1].Store(int64(5 * time.Millisecond))
	rt := newTestRouter(t, f, Config{
		Replicas:   2,
		Hedge:      true,
		HedgeAfter: time.Millisecond,
	})
	out, err := rt.Act(obsOf(4, 0), time.Time{})
	if err != nil || out.Data()[0] != 4 {
		t.Fatalf("hedged request: out=%v err=%v", out, err)
	}
	m := checkIdentities(t, rt)
	if m.Hedges < 1 {
		t.Fatalf("expected a hedge to fire, got %+v", m)
	}
	if m.Requests != 1 || m.Completed != 1 {
		t.Fatalf("hedging must deliver exactly once: %+v", m)
	}
}

// TestSwapVersionStampConsistency swaps weights continuously under load and
// asserts the core hot-swap contract fleet-wide: every response's value
// matches the scale of the version it is stamped with — a response can
// never mix one version's stamp with another version's weights.
func TestSwapVersionStampConsistency(t *testing.T) {
	f := newFakeFleet()
	rt := newTestRouter(t, f, Config{Replicas: 3})

	// version v serves scale v+1 (version 0 = build default scale 1).
	scaleFor := func(v int64) float64 { return float64(v + 1) }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mismatches atomic.Int64
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 100))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				in := rng.Float64() + 0.5
				out, v, err := rt.ActVersion(obsOf(in, 0), time.Time{})
				if err != nil {
					continue // swaps never fail requests, but shed is legal
				}
				if want := in * scaleFor(v); out.Data()[0] != want {
					mismatches.Add(1)
					t.Errorf("response stamped v%d has value %v, want %v: stamp/weights mixed", v, out.Data()[0], want)
					return
				}
			}
		}(c)
	}
	for v := int64(1); v <= 20; v++ {
		if err := rt.SwapAll(scaleWeights(scaleFor(v)), v); err != nil {
			t.Errorf("SwapAll v%d: %v", v, err)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if mismatches.Load() != 0 {
		t.Fatalf("%d stamp/weight mismatches", mismatches.Load())
	}
	m := checkIdentities(t, rt)
	if m.Swaps < 3*20 {
		t.Fatalf("expected 60 replica swaps, got %d (skips=%d errors=%d)", m.Swaps, m.SwapSkips, m.SwapErrors)
	}
	// All replicas converged on the final version.
	for i, r := range m.Replicas {
		if r.Version != 20 {
			t.Errorf("replica %d on version %d, want 20", i, r.Version)
		}
	}
}

// TestExactlyOnceUnderChaos is the synthetic chaos gate: concurrent load
// with mixed deadlines while a replica is repeatedly killed, another's
// runner flaps, and weight swaps roll through — afterwards every routed
// attempt and every request is accounted exactly once, on the hedged
// (goroutine per attempt) and on the inline request path alike.
func TestExactlyOnceUnderChaos(t *testing.T) {
	for _, hedge := range []bool{true, false} {
		t.Run(fmt.Sprintf("hedge=%v", hedge), func(t *testing.T) { exactlyOnceUnderChaos(t, hedge) })
	}
}

func exactlyOnceUnderChaos(t *testing.T, hedge bool) {
	f := newFakeFleet()
	rt := newTestRouter(t, f, Config{
		Replicas: 3,
		Hedge:    hedge,
		Seed:     42,
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Client load: half tight deadlines (will miss sometimes), half patient.
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 7))
			for i := 0; i < 150; i++ {
				var deadline time.Time
				if c%2 == 0 {
					deadline = time.Now().Add(time.Duration(rng.Intn(2000)+50) * time.Microsecond)
				}
				_, _ = rt.Act(obsOf(rng.Float64(), rng.Float64()), deadline)
			}
		}(c)
	}

	// Chaos: kill replica 0 twice, flap replica 1's runner, roll swaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		v := int64(0)
		for i := 0; i < 10; i++ {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			switch i % 3 {
			case 0:
				_ = rt.Kill(0)
			case 1:
				f.fail[1].Store(i%2 == 1)
			case 2:
				v++
				_ = rt.SwapAll(scaleWeights(float64(v+1)), v)
			}
		}
		f.fail[1].Store(false)
	}()
	wg.Wait()
	close(stop)

	m := checkIdentities(t, rt)
	if m.Requests != 6*150 {
		t.Fatalf("requests %d, want %d", m.Requests, 6*150)
	}
	if m.Completed == 0 {
		t.Fatalf("chaos run completed nothing: %+v", m)
	}
	t.Logf("chaos: %d requests → %d completed, %d misses, %d failed, %d unroutable; %d attempts (%d retried away, %d hedges); %d restarts",
		m.Requests, m.Completed, m.Misses, m.Failed, m.Unroutable, m.Routed, m.RetriedAway, m.Hedges, m.Restarts)
}

// TestShutdownRejectsAndDrains asserts Shutdown stops routing, pending
// requests resolve, and subsequent Acts fail fast with ErrClosed.
func TestShutdownRejectsAndDrains(t *testing.T) {
	f := newFakeFleet()
	rt := newTestRouter(t, f, Config{Replicas: 2})
	for i := 0; i < 10; i++ {
		if _, err := rt.Act(obsOf(1, 1), time.Time{}); err != nil {
			t.Fatalf("warm-up act: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := rt.Act(obsOf(1, 1), time.Time{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Act after shutdown: err=%v, want ErrClosed", err)
	}
	checkIdentities(t, rt)
}

// TestUnroutableWhenAllReplicasDown kills the whole fleet and asserts
// requests fail fast with ErrNoReplicas and are accounted Unroutable.
func TestUnroutableWhenAllReplicasDown(t *testing.T) {
	f := newFakeFleet()
	rt := newTestRouter(t, f, Config{
		Replicas:       2,
		MaxRestarts:    -1, // never rebuild: the outage is permanent
		RestartBackoff: time.Hour,
	})
	_ = rt.Kill(0)
	_ = rt.Kill(1)
	waitFor(t, 2*time.Second, "replicas down", func() bool {
		return rt.replicas[0].state.Load() != stateHealthy && rt.replicas[1].state.Load() != stateHealthy
	})
	if _, err := rt.Act(obsOf(1, 1), time.Time{}); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("err=%v, want ErrNoReplicas", err)
	}
	m := checkIdentities(t, rt)
	if m.Unroutable < 1 {
		t.Fatalf("expected unroutable accounting, got %+v", m)
	}
}

// TestHashRingDeterministicAndStable pins the consistent-hash tie-break:
// lookups are deterministic, and removing one replica from membership only
// moves keys that mapped to it.
func TestHashRingDeterministicAndStable(t *testing.T) {
	ring := newHashRing(4, 16)
	all, without2 := replicaSet(0b1111), replicaSet(0b1011)
	moved, kept := 0, 0
	for i := 0; i < 1000; i++ {
		h := fnvMix(fnvOffset, [8]byte{byte(i), byte(i >> 8)})
		a, ok := ring.lookup(h, all)
		if !ok {
			t.Fatalf("lookup failed with full membership")
		}
		b, _ := ring.lookup(h, all)
		if a != b {
			t.Fatalf("lookup not deterministic: %d vs %d", a, b)
		}
		c, _ := ring.lookup(h, without2)
		if a == 2 {
			if c == 2 {
				t.Fatalf("removed replica still selected")
			}
			moved++
		} else {
			if c != a {
				t.Fatalf("key moved although its replica survived: %d → %d", a, c)
			}
			kept++
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate ring distribution: moved=%d kept=%d", moved, kept)
	}
}
