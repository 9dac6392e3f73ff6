package distexec

import (
	"sync"
	"testing"
	"time"

	"rlgraph/internal/tensor"
)

func psInit() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{
		"w": tensor.FromSlice([]float64{1, 2}, 2),
		"b": tensor.Scalar(0),
	}
}

func TestParameterServerPushPull(t *testing.T) {
	ps := NewParameterServer(psInit())
	w, v0 := ps.Pull()
	if v0 != 0 || w["w"].Data()[0] != 1 {
		t.Fatalf("initial pull: v=%d w=%v", v0, w["w"])
	}
	// Pull is a deep copy.
	w["w"].Data()[0] = 99
	w2, _ := ps.Pull()
	if w2["w"].Data()[0] != 1 {
		t.Fatal("pull aliased storage")
	}
	v1, err := ps.Push(map[string]*tensor.Tensor{"w": tensor.FromSlice([]float64{5, 6}, 2)})
	if err != nil || v1 != 1 {
		t.Fatalf("push: v=%d err=%v", v1, err)
	}
	w3, v := ps.Pull()
	if v != 1 || w3["w"].Data()[1] != 6 {
		t.Fatal("push not visible")
	}
	if st := ps.Version() - v0; st != 1 {
		t.Fatalf("staleness = %d", st)
	}
}

func TestParameterServerValidation(t *testing.T) {
	ps := NewParameterServer(psInit())
	if _, err := ps.Push(map[string]*tensor.Tensor{"nope": tensor.Scalar(1)}); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if _, err := ps.Push(map[string]*tensor.Tensor{"w": tensor.New(3)}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// TestParameterServerConcurrentWorkers mimics the distributed-TF pattern:
// many workers pushing whole snapshots while they pull. Every pull must be
// one push's snapshot (never half of two), and no write may be lost.
func TestParameterServerConcurrentWorkers(t *testing.T) {
	ps := NewParameterServer(psInit())
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				x := float64(w*perWorker + i)
				if _, err := ps.Push(map[string]*tensor.Tensor{
					"w": tensor.FromSlice([]float64{x, x}, 2), "b": tensor.Scalar(x),
				}); err != nil {
					t.Error(err)
					return
				}
				snap, _ := ps.Pull()
				if d := snap["w"].Data(); d[0] != d[1] || d[0] != snap["b"].Item() {
					t.Errorf("torn snapshot: w=%v b=%g", d, snap["b"].Item())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if _, v := ps.Pull(); v != workers*perWorker {
		t.Fatalf("version = %d, want %d (lost writes)", v, workers*perWorker)
	}
}

// TestParameterServerWithAgents runs the learner→PS→worker weight path with
// real agents, as the distributed-TF executor would.
func TestParameterServerWithAgents(t *testing.T) {
	env := gridEnvFactory(9)
	learner := newDQN(t, env, 1)
	worker := newDQN(t, env, 2)
	ps := NewParameterServer(learner.GetWeights())

	// Learner improves, pushes; worker pulls and matches.
	learner.GetWeights() // no-op read
	if _, err := ps.Push(learner.GetWeights()); err != nil {
		t.Fatal(err)
	}
	w, _ := ps.Pull()
	if err := worker.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	st := tensor.Ones(1, 9)
	ql, err := learner.GetQValues(st)
	if err != nil {
		t.Fatal(err)
	}
	qw, err := worker.GetQValues(st)
	if err != nil {
		t.Fatal(err)
	}
	if !ql.AllClose(qw, 1e-12) {
		t.Fatal("PS round trip did not align policies")
	}
}

// TestParameterServerVersionMonotonicUnderConcurrentWrites hammers Push from
// many goroutines and asserts every write observed a unique,
// monotonically assigned version: no two writers can be told the same
// version, no version is skipped, and the final Version equals the write
// count.
func TestParameterServerVersionMonotonicUnderConcurrentWrites(t *testing.T) {
	ps := NewParameterServer(psInit())
	const writers, perWriter = 8, 50
	versions := make(chan int64, writers*perWriter)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v, err := ps.Push(map[string]*tensor.Tensor{"b": tensor.Scalar(float64(i))})
				if err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
				versions <- v
			}
		}(g)
	}
	wg.Wait()
	close(versions)
	seen := make(map[int64]bool)
	var max int64
	for v := range versions {
		if v <= 0 {
			t.Fatalf("non-positive version %d", v)
		}
		if seen[v] {
			t.Fatalf("version %d handed to two writers", v)
		}
		seen[v] = true
		if v > max {
			max = v
		}
	}
	total := int64(writers * perWriter)
	if max != total || ps.Version() != total {
		t.Fatalf("final version %d (max observed %d), want %d", ps.Version(), max, total)
	}
	for v := int64(1); v <= total; v++ {
		if !seen[v] {
			t.Fatalf("version %d skipped", v)
		}
	}
}

// TestParameterServerStalenessDuringConcurrentPushes interleaves pullers
// with a pusher and asserts the staleness arithmetic never wraps around: a
// pull that lands during a push must never report a version newer than the
// server's (negative staleness), and once writes stop, staleness converges
// to zero.
func TestParameterServerStalenessDuringConcurrentPushes(t *testing.T) {
	ps := NewParameterServer(psInit())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastV int64 = -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, v := ps.Pull()
				if v < lastV {
					t.Errorf("pulled version went backwards: %d after %d", v, lastV)
					return
				}
				lastV = v
				if st := ps.Version() - v; st < 0 {
					t.Errorf("negative staleness %d for pulled version %d", st, v)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := ps.Push(map[string]*tensor.Tensor{"b": tensor.Scalar(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if _, v := ps.Pull(); ps.Version()-v != 0 {
		t.Fatalf("quiescent staleness = %d, want 0", ps.Version()-v)
	}
}

// TestParameterServerSubscribeCoalesces checks the snapshot-subscription
// contract: a subscriber is notified of writes, a lagging subscriber sees
// the newest version rather than a backlog, and cancel closes the channel.
func TestParameterServerSubscribeCoalesces(t *testing.T) {
	ps := NewParameterServer(psInit())
	ch, cancel := ps.Subscribe()
	// Burst of pushes with no reader: the 1-buffered channel must coalesce
	// onto the newest version.
	var last int64
	for i := 0; i < 10; i++ {
		v, err := ps.Push(map[string]*tensor.Tensor{"b": tensor.Scalar(float64(i))})
		if err != nil {
			t.Fatal(err)
		}
		last = v
	}
	select {
	case v := <-ch:
		if v != last {
			t.Fatalf("coalesced notification = %d, want newest %d", v, last)
		}
	case <-time.After(time.Second):
		t.Fatal("no notification delivered")
	}
	// Channel is now drained: the next write notifies again.
	v, err := ps.Push(map[string]*tensor.Tensor{"b": tensor.Scalar(1)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-ch:
		if got != v {
			t.Fatalf("notification = %d, want %d", got, v)
		}
	case <-time.After(time.Second):
		t.Fatal("no notification after drain")
	}
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("channel still open after cancel")
	}
	cancel() // idempotent
	if _, err := ps.Push(map[string]*tensor.Tensor{"b": tensor.Scalar(9)}); err != nil {
		t.Fatalf("push after cancel: %v", err)
	}
}
