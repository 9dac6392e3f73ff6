package raysim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"rlgraph/internal/tensor"
)

func mustActor(t *testing.T, c *Cluster, name string, b Behavior) *ActorRef {
	t.Helper()
	a, err := c.NewActor(name, b)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestActorCallReturnsResult(t *testing.T) {
	c := NewCluster(Config{})
	a := mustActor(t, c, "adder", Behavior{
		"add": func(args []interface{}) (interface{}, error) {
			return args[0].(int) + args[1].(int), nil
		},
	})
	defer c.StopAll()
	v, err := a.Call("add", 2, 3).Get()
	if err != nil || v.(int) != 5 {
		t.Fatalf("got %v, %v", v, err)
	}
}

func TestUnknownMethodErrors(t *testing.T) {
	c := NewCluster(Config{})
	a := mustActor(t, c, "x", Behavior{})
	defer c.StopAll()
	if _, err := a.Call("nope").Get(); err == nil {
		t.Fatal("expected error")
	}
}

func TestActorSerializesCalls(t *testing.T) {
	c := NewCluster(Config{})
	n := 0
	a := mustActor(t, c, "counter", Behavior{
		"inc": func([]interface{}) (interface{}, error) {
			n++ // safe only if calls are serialized
			return n, nil
		},
	})
	defer c.StopAll()
	var wg sync.WaitGroup
	futs := make([]*Future, 100)
	for i := range futs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			futs[i] = a.Call("inc")
		}(i)
	}
	wg.Wait()
	for _, f := range futs {
		if _, err := f.Get(); err != nil {
			t.Fatal(err)
		}
	}
	if n != 100 {
		t.Fatalf("n = %d", n)
	}
}

func TestFutureGetIsIdempotent(t *testing.T) {
	c := NewCluster(Config{})
	a := mustActor(t, c, "one", Behavior{
		"f": func([]interface{}) (interface{}, error) { return 1, nil },
	})
	defer c.StopAll()
	f := a.Call("f")
	v1, _ := f.Get()
	v2, _ := f.Get()
	if v1.(int) != 1 || v2.(int) != 1 {
		t.Fatal("Get not idempotent")
	}
}

func TestLatencyModelDelaysDelivery(t *testing.T) {
	c := NewCluster(Config{PerCallLatency: 20 * time.Millisecond})
	a := mustActor(t, c, "slow", Behavior{
		"f": func([]interface{}) (interface{}, error) { return nil, nil },
	})
	defer c.StopAll()
	start := time.Now()
	if _, err := a.Call("f").Get(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 18*time.Millisecond {
		t.Fatalf("call returned after %v, latency not applied", d)
	}
}

func TestBandwidthChargesTensorBytes(t *testing.T) {
	c := NewCluster(Config{BytesPerSecond: 1e6}) // 1 MB/s
	a := mustActor(t, c, "bw", Behavior{
		"f": func([]interface{}) (interface{}, error) { return nil, nil },
	})
	defer c.StopAll()
	payload := tensor.New(2500) // 20 KB → ≥20 ms at 1 MB/s
	start := time.Now()
	if _, err := a.Call("f", payload).Get(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("payload not charged: %v", d)
	}
	if c.BytesMoved < 20000 {
		t.Fatalf("bytes moved = %d", c.BytesMoved)
	}
}

func TestCallCountsAndStop(t *testing.T) {
	c := NewCluster(Config{})
	a := mustActor(t, c, "x", Behavior{
		"f": func([]interface{}) (interface{}, error) { return nil, nil },
	})
	for i := 0; i < 5; i++ {
		mustGet(t, a.Call("f"))
	}
	if c.Calls != 5 {
		t.Fatalf("calls = %d", c.Calls)
	}
	a.Stop()
	a.Wait()
	if _, err := a.Call("f").Get(); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped actor accepted call: %v", err)
	}
}

func TestDuplicateActorErrors(t *testing.T) {
	c := NewCluster(Config{})
	defer c.StopAll()
	if _, err := c.NewActor("dup", Behavior{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewActor("dup", Behavior{}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestPipelinedThroughput(t *testing.T) {
	// Many in-flight calls to one actor complete in call order.
	c := NewCluster(Config{})
	a := mustActor(t, c, "pipe", Behavior{
		"echo": func(args []interface{}) (interface{}, error) { return args[0], nil },
	})
	defer c.StopAll()
	futs := make([]*Future, 50)
	for i := range futs {
		futs[i] = a.Call("echo", i)
	}
	for i, f := range futs {
		v, err := f.Get()
		if err != nil || v.(int) != i {
			t.Fatalf("fut %d = %v, %v", i, v, err)
		}
	}
	if actorOf(c, "pipe") != a {
		t.Fatal("lookup failed")
	}
}

func TestPayloadEstimation(t *testing.T) {
	b := estimateBytes([]interface{}{
		tensor.New(10),
		[]*tensor.Tensor{tensor.New(5), tensor.New(5)},
		map[string]*tensor.Tensor{"w": tensor.New(3)},
		fmt.Sprintf("x"),
	})
	want := int64(4*64 + 80 + 80 + 24)
	if b != want {
		t.Fatalf("bytes = %d, want %d", b, want)
	}
}

// --- Fault tolerance ---

func TestPanicCrashesActorCleanly(t *testing.T) {
	c := NewCluster(Config{})
	gate := make(chan struct{})
	a := mustActor(t, c, "bomb", Behavior{
		"boom": func([]interface{}) (interface{}, error) {
			<-gate
			panic("kaboom")
		},
		"ok": func([]interface{}) (interface{}, error) { return 1, nil },
	})
	f1 := a.Call("boom")
	f2 := a.Call("ok") // queued behind the panic
	close(gate)
	if _, err := f1.GetTimeout(2 * time.Second); err == nil || !errors.Is(err, ErrCrashed) {
		t.Fatalf("panic not surfaced as crash: %v", err)
	}
	var pe *PanicError
	if _, err := f1.Get(); !errors.As(err, &pe) || pe.Actor != "bomb" {
		t.Fatalf("not a PanicError: %v", err)
	}
	if _, err := f2.GetTimeout(2 * time.Second); err == nil || !errors.Is(err, ErrCrashed) {
		t.Fatalf("queued call after panic did not fail: %v", err)
	}
	a.Wait()
	if !a.crashed.Load() {
		t.Fatal("actor not marked crashed")
	}
	if _, err := a.Call("ok").Get(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashed actor accepted call: %v", err)
	}
}

func TestGetTimeoutAbandonsSlowCall(t *testing.T) {
	c := NewCluster(Config{})
	a := mustActor(t, c, "slowpoke", Behavior{
		"f": func([]interface{}) (interface{}, error) {
			time.Sleep(80 * time.Millisecond)
			return 42, nil
		},
	})
	defer c.StopAll()
	f := a.Call("f")
	if _, err := f.GetTimeout(10 * time.Millisecond); !IsTimeout(err) {
		t.Fatalf("want timeout, got %v", err)
	}
	// The call still completes; a later blocking Get sees the value.
	if v, err := f.GetTimeout(2 * time.Second); err != nil || v.(int) != 42 {
		t.Fatalf("late result lost: %v, %v", v, err)
	}
}

func TestRestartRespawnsFromFactory(t *testing.T) {
	c := NewCluster(Config{})
	incarnation := 0
	a, err := c.NewRestartableActor("phoenix", func() (Behavior, error) {
		incarnation++
		id := incarnation
		return Behavior{
			"id":   func([]interface{}) (interface{}, error) { return id, nil },
			"boom": func([]interface{}) (interface{}, error) { panic("die") },
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	if v, _ := a.Call("id").Get(); v.(int) != 1 {
		t.Fatalf("incarnation = %v", v)
	}
	a.Call("boom").Get()
	a.Wait()
	nw, err := c.Restart("phoenix")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := nw.Call("id").Get(); err != nil || v.(int) != 2 {
		t.Fatalf("restarted incarnation = %v, %v", v, err)
	}
	if actorOf(c, "phoenix") != nw {
		t.Fatal("registry not updated")
	}
	if c.Restarts != 1 {
		t.Fatalf("restarts = %d", c.Restarts)
	}
	// Old ref stays dead.
	if _, err := a.Call("id").Get(); err == nil {
		t.Fatal("old incarnation still serving")
	}
}

func TestRestartRequiresFactory(t *testing.T) {
	c := NewCluster(Config{})
	defer c.StopAll()
	mustActor(t, c, "plain", Behavior{})
	if _, err := c.Restart("plain"); err == nil {
		t.Fatal("restart without factory accepted")
	}
	if _, err := c.Restart("ghost"); err == nil {
		t.Fatal("restart of unknown actor accepted")
	}
}

func TestDeadActorFullMailboxDoesNotBlockSenders(t *testing.T) {
	c := NewCluster(Config{MailboxSize: 2})
	gate := make(chan struct{})
	a := mustActor(t, c, "clogged", Behavior{
		"first": func([]interface{}) (interface{}, error) {
			<-gate
			panic("dead")
		},
		"f": func([]interface{}) (interface{}, error) { return nil, nil },
	})
	futs := []*Future{a.Call("first")}
	done := make(chan *Future, 16)
	// Senders beyond the mailbox capacity block until the crash, then must
	// all resolve with errors instead of hanging.
	for i := 0; i < 8; i++ {
		go func() { done <- a.Call("f") }()
	}
	time.Sleep(20 * time.Millisecond) // let senders pile up on the full mailbox
	close(gate)
	for i := 0; i < 8; i++ {
		select {
		case f := <-done:
			futs = append(futs, f)
		case <-time.After(2 * time.Second):
			t.Fatal("sender still blocked on dead actor's mailbox")
		}
	}
	for i, f := range futs {
		if _, err := f.GetTimeout(2 * time.Second); err == nil {
			t.Fatalf("future %d resolved without error on crashed actor", i)
		}
	}
}

func TestFaultPlanCrashOnNthCall(t *testing.T) {
	c := NewCluster(Config{Faults: &FaultPlan{Actors: map[string]ActorFaults{
		"victim": {CrashOnCall: 3},
	}}})
	a, err := c.NewRestartableActor("victim", func() (Behavior, error) {
		return Behavior{"f": func([]interface{}) (interface{}, error) { return nil, nil }}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, err := a.Call("f").GetTimeout(2 * time.Second); err != nil {
			t.Fatalf("call %d failed early: %v", i, err)
		}
	}
	if _, err := a.Call("f").GetTimeout(2 * time.Second); !errors.Is(err, ErrInjected) || !errors.Is(err, ErrCrashed) {
		t.Fatalf("call 3 not an injected crash: %v", err)
	}
	// Fault state persists across restart: the fresh incarnation must not
	// crash again at its own third call.
	nw, err := c.Restart("victim")
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	for i := 0; i < 5; i++ {
		if _, err := nw.Call("f").GetTimeout(2 * time.Second); err != nil {
			t.Fatalf("restarted actor crashed again: %v", err)
		}
	}
}

func TestFaultPlanErrorProbDeterministic(t *testing.T) {
	pattern := func() []bool {
		c := NewCluster(Config{Faults: &FaultPlan{Seed: 7, Actors: map[string]ActorFaults{
			"flaky": {ErrorProb: 0.5},
		}}})
		defer c.StopAll()
		a := mustActor(t, c, "flaky", Behavior{
			"f": func([]interface{}) (interface{}, error) { return nil, nil },
		})
		out := make([]bool, 40)
		for i := range out {
			_, err := a.Call("f").GetTimeout(2 * time.Second)
			out[i] = err != nil
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error kind: %v", err)
			}
		}
		return out
	}
	p1, p2 := pattern(), pattern()
	fails := 0
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("fault pattern not deterministic at call %d", i)
		}
		if p1[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(p1) {
		t.Fatalf("degenerate fault pattern: %d/%d failures", fails, len(p1))
	}
}

func TestFaultPlanLatency(t *testing.T) {
	c := NewCluster(Config{Faults: &FaultPlan{Seed: 3, Actors: map[string]ActorFaults{
		"molasses": {ExtraLatency: 30 * time.Millisecond, LatencyJitter: 5 * time.Millisecond},
	}}})
	defer c.StopAll()
	a := mustActor(t, c, "molasses", Behavior{
		"f": func([]interface{}) (interface{}, error) { return nil, nil },
	})
	start := time.Now()
	if _, err := a.Call("f").GetTimeout(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 28*time.Millisecond {
		t.Fatalf("injected latency not applied: %v", d)
	}
}

func TestStopAllAbandonsHungActor(t *testing.T) {
	c := NewCluster(Config{ShutdownGrace: 100 * time.Millisecond})
	block := make(chan struct{}) // never closed: a permanently hung method
	mustActor(t, c, "hung", Behavior{
		"hang": func([]interface{}) (interface{}, error) { <-block; return nil, nil },
	})
	f := actorOf(c, "hung").Call("hang")
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	c.StopAll() // must not wait forever on the hung actor
	if d := time.Since(start); d > time.Second {
		t.Fatalf("StopAll blocked %v on a hung actor", d)
	}
	if _, err := f.GetTimeout(10 * time.Millisecond); !IsTimeout(err) {
		t.Fatalf("hung call should only resolve via caller deadline: %v", err)
	}
}

// TestStoppedActorsReleaseTheirState: a stopped actor's ref stays reachable
// (cluster registry, parked drainer) for the life of the process, but the
// state its behavior closes over must not — set-up/tear-down loops otherwise
// accumulate every dead actor's memory.
func TestStoppedActorsReleaseTheirState(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	c := NewCluster(Config{})
	base := heap()
	for i := 0; i < 20; i++ {
		state := make([]byte, 1<<20)
		a := mustActor(t, c, fmt.Sprintf("holder-%d", i), Behavior{
			"touch": func([]interface{}) (interface{}, error) { state[0]++; return int(state[0]), nil },
		})
		mustGet(t, a.Call("touch"))
	}
	if held := heap(); held < base+(19<<20) {
		t.Fatalf("live actors hold %d bytes over baseline, want ~20 MiB (test no longer measures actor state)", held-base)
	}
	c.StopAll()
	if after := heap(); after > base+(2<<20) {
		t.Fatalf("20 stopped actors pin %d bytes over baseline, want < 2 MiB", after-base)
	}
	// The dead refs still answer — with an error, never a hang.
	if _, err := actorOf(c, "holder-0").Call("touch").Get(); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped actor accepted call: %v", err)
	}
}

// actorOf returns the current incarnation of a registered actor, or nil.
func actorOf(c *Cluster, name string) *ActorRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.actors[name]
}

// mustGet waits for f and fails the test on an error.
func mustGet(t *testing.T, f *Future) interface{} {
	t.Helper()
	v, err := f.Get()
	if err != nil {
		t.Fatal(err)
	}
	return v
}
