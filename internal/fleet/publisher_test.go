package fleet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlgraph/internal/distexec"
)

// TestPublisherAppliesPushes wires a parameter server to the fleet and
// asserts the initial snapshot is installed synchronously and subsequent
// pushes roll out, with responses stamped by the PS version that actually
// served them.
func TestPublisherAppliesPushes(t *testing.T) {
	f := newFakeFleet()
	rt := newTestRouter(t, f, Config{Replicas: 2})
	ps := distexec.NewParameterServer(scaleWeights(1))
	if _, err := ps.Push(scaleWeights(2)); err != nil { // v1
		t.Fatalf("Push: %v", err)
	}

	p, err := StartPublisher(ps, rt, PublisherConfig{GuardWindow: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("StartPublisher: %v", err)
	}
	defer p.Close()

	// The initial sync is synchronous: v1 serves immediately.
	out, v, err := rt.ActVersion(obsOf(3, 0), time.Time{})
	if err != nil || v != 1 || out.Data()[0] != 6 {
		t.Fatalf("initial sync: out=%v v=%d err=%v, want 6 @ v1", out.Data(), v, err)
	}

	if _, err := ps.Push(scaleWeights(5)); err != nil { // v2
		t.Fatalf("Push: %v", err)
	}
	waitFor(t, 3*time.Second, "v2 rollout", func() bool {
		_, v, err := rt.ActVersion(obsOf(1, 0), time.Time{})
		return err == nil && v == 2
	})
	out, v, err = rt.ActVersion(obsOf(3, 0), time.Time{})
	if err != nil || v != 2 || out.Data()[0] != 15 {
		t.Fatalf("after rollout: out=%v v=%d err=%v, want 15 @ v2", out.Data(), v, err)
	}
	if p.Published() < 2 || p.Rollbacks() != 0 {
		t.Fatalf("published=%d rollbacks=%d, want ≥2 and 0", p.Published(), p.Rollbacks())
	}
	checkIdentities(t, rt)
}

// TestPublisherRollsBackRegression pushes a poisoned snapshot (installs
// fine, errors at serve time) under live load and asserts the regression
// guard detects the error spike, rolls the fleet back to the last good
// version, blacklists the bad one, and still applies the next good push.
func TestPublisherRollsBackRegression(t *testing.T) {
	f := newFakeFleet()
	rt := newTestRouter(t, f, Config{Replicas: 2, EjectAfter: 1 << 30}) // breaker off: isolate the guard
	ps := distexec.NewParameterServer(scaleWeights(1))
	if _, err := ps.Push(scaleWeights(2)); err != nil { // v1: good
		t.Fatalf("Push: %v", err)
	}
	p, err := StartPublisher(ps, rt, PublisherConfig{
		GuardWindow:     30 * time.Millisecond,
		GuardMinSamples: 5,
		MaxErrRate:      0.05,
	})
	if err != nil {
		t.Fatalf("StartPublisher: %v", err)
	}
	defer p.Close()

	// Live load so the guard has samples to judge.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var loadErrs atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := rt.Act(obsOf(1, 1), time.Time{}); err != nil {
				loadErrs.Add(1)
			}
		}
	}()

	if _, err := ps.Push(scaleWeights(scaleFail)); err != nil { // v2: poisoned
		t.Fatalf("Push: %v", err)
	}
	waitFor(t, 5*time.Second, "rollback to v1", func() bool {
		return p.Rollbacks() == 1 && p.lastGoodV.Load() == 1
	})
	waitFor(t, 3*time.Second, "fleet serving v1 again", func() bool {
		out, v, err := rt.ActVersion(obsOf(3, 0), time.Time{})
		return err == nil && v == 1 && out.Data()[0] == 6
	})

	// A later good push still applies; the bad version stays blacklisted.
	if _, err := ps.Push(scaleWeights(4)); err != nil { // v3: good
		t.Fatalf("Push: %v", err)
	}
	waitFor(t, 3*time.Second, "v3 rollout", func() bool {
		out, v, err := rt.ActVersion(obsOf(3, 0), time.Time{})
		return err == nil && v == 3 && out.Data()[0] == 12
	})
	close(stop)
	wg.Wait()
	if p.Rollbacks() != 1 {
		t.Fatalf("rollbacks=%d, want exactly 1 (bad version must not be retried)", p.Rollbacks())
	}
	if loadErrs.Load() == 0 {
		t.Fatalf("poisoned version produced no serving errors: the guard was never actually exercised")
	}
	checkIdentities(t, rt)
}

// TestPublisherRejectedInstallRollsBack covers the other failure shape: the
// weight sink refuses the snapshot outright (SwapAll errors). The publisher
// must restore the last good snapshot and not wedge.
func TestPublisherRejectedInstallRollsBack(t *testing.T) {
	f := newFakeFleet()
	rt := newTestRouter(t, f, Config{Replicas: 2})
	ps := distexec.NewParameterServer(scaleWeights(1))
	if _, err := ps.Push(scaleWeights(2)); err != nil { // v1
		t.Fatalf("Push: %v", err)
	}
	p, err := StartPublisher(ps, rt, PublisherConfig{GuardWindow: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("StartPublisher: %v", err)
	}
	defer p.Close()

	// v2 carries a scale every replica's weight sink refuses to install.
	if _, err := ps.Push(scaleWeights(scaleReject)); err != nil {
		t.Fatalf("Push: %v", err)
	}
	waitFor(t, 3*time.Second, "install-failure rollback", func() bool {
		return p.Rollbacks() == 1
	})
	out, v, err := rt.ActVersion(obsOf(3, 0), time.Time{})
	if err != nil || v != 1 || out.Data()[0] != 6 {
		t.Fatalf("after rejected install: out=%v v=%d err=%v, want 6 @ v1", out.Data(), v, err)
	}
	if _, err := ps.Push(scaleWeights(3)); err != nil { // v3 good
		t.Fatalf("Push: %v", err)
	}
	waitFor(t, 3*time.Second, "v3 rollout after rejected v2", func() bool {
		_, v, err := rt.ActVersion(obsOf(1, 0), time.Time{})
		return err == nil && v == 3
	})
}
