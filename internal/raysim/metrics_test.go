package raysim

import (
	"testing"
	"time"
)

// TestActorMetricsBackpressure: a slow actor behind a tiny mailbox must
// record queue depth, blocked sends, and queue-wait latency; counters persist
// across a restart (keyed by name, like fault state).
func TestActorMetricsBackpressure(t *testing.T) {
	c := NewCluster(Config{MailboxSize: 2})
	slow := Behavior{
		"work": func(args []interface{}) (interface{}, error) {
			time.Sleep(2 * time.Millisecond)
			return nil, nil
		},
	}
	a, err := c.NewRestartableActor("worker", func() (Behavior, error) { return slow, nil })
	if err != nil {
		t.Fatal(err)
	}

	const calls = 12
	futs := make([]*Future, calls)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range futs {
			futs[i] = a.Call("work")
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("senders wedged")
	}
	for _, f := range futs {
		if _, err := f.GetTimeout(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	m := c.ActorMetricsSnapshot()["worker"]
	if m.CallsEnqueued != calls || m.CallsProcessed != calls {
		t.Fatalf("enqueued/processed = %d/%d, want %d/%d", m.CallsEnqueued, m.CallsProcessed, calls, calls)
	}
	if m.MailboxHWM < 2 {
		t.Fatalf("MailboxHWM = %d, want >= 2 (mailbox size 2 was saturated)", m.MailboxHWM)
	}
	if m.BlockedSends == 0 {
		t.Fatal("no blocked sends recorded despite a full mailbox")
	}
	if m.QueueWaitMax <= 0 || m.QueueWaitTotal < m.QueueWaitMax {
		t.Fatalf("queue wait total=%v max=%v", m.QueueWaitTotal, m.QueueWaitMax)
	}

	// Metrics survive a restart: the fresh incarnation appends to the same
	// per-name accumulator.
	if _, err := c.Restart("worker"); err != nil {
		t.Fatal(err)
	}
	if _, err := actorOf(c, "worker").Call("work").GetTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	m = c.ActorMetricsSnapshot()["worker"]
	if m.CallsEnqueued != calls+1 {
		t.Fatalf("post-restart CallsEnqueued = %d, want %d", m.CallsEnqueued, calls+1)
	}

	snap := c.ActorMetricsSnapshot()
	if snap["worker"].CallsEnqueued != calls+1 {
		t.Fatalf("snapshot disagrees: %+v", snap["worker"])
	}
	c.StopAll()
}
