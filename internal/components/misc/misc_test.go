package misc

import (
	"sync"
	"testing"
	"time"

	"rlgraph/internal/exec"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

func storeWith(names []string, vals []float64) *vars.Store {
	s := vars.NewStore()
	for i, n := range names {
		s.Add(vars.New(n, tensor.Scalar(vals[i])))
	}
	return s
}

func TestSyncStoresCopiesValues(t *testing.T) {
	src := storeWith([]string{"a", "b"}, []float64{1, 2})
	dst := storeWith([]string{"a2", "b2"}, []float64{0, 0})
	n, err := SyncStores(src, dst)
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	a2, b2 := dst.All()[0], dst.All()[1]
	if a2.Val.Item() != 1 || b2.Val.Item() != 2 {
		t.Fatal("values not copied")
	}
	// Deep copy: mutating source must not affect destination.
	src.All()[0].Val.Data()[0] = 99
	if a2.Val.Item() != 1 {
		t.Fatal("sync aliased storage")
	}
}

func TestSyncStoresSizeMismatch(t *testing.T) {
	src := storeWith([]string{"a"}, []float64{1})
	dst := storeWith([]string{"x", "y"}, []float64{0, 0})
	if _, err := SyncStores(src, dst); err == nil {
		t.Fatal("expected error")
	}
}

func TestSynchronizerComponent(t *testing.T) {
	src := storeWith([]string{"a"}, []float64{5})
	dst := storeWith([]string{"b"}, []float64{0})
	s := NewSynchronizer("sync", func() *vars.Store { return src }, func() *vars.Store { return dst })
	ct, err := exec.NewComponentTest("static", s.Component, exec.InputSpaces{"sync": {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Test("sync"); err != nil {
		t.Fatal(err)
	}
	if dst.All()[0].Val.Item() != 5 {
		t.Fatal("synchronizer did not copy")
	}
	if s.Syncs != 1 {
		t.Fatalf("syncs = %d", s.Syncs)
	}
}

func queueSpaces() exec.InputSpaces {
	return exec.InputSpaces{
		"enqueue": {spaces.NewFloatBox(2).WithBatchRank(), spaces.NewFloatBox().WithBatchRank()},
		"dequeue": {},
	}
}

func TestFIFOQueueOrdering(t *testing.T) {
	for _, b := range exec.Backends() {
		q := NewFIFOQueue("q", 4, 2)
		ct, err := exec.NewComponentTest(b, q.Component, queueSpaces())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			x := tensor.Full(float64(i), 1, 2)
			r := tensor.Full(float64(i), 1)
			if _, err := ct.Test("enqueue", x, r); err != nil {
				t.Fatal(err)
			}
		}
		if q.Len() != 3 {
			t.Fatalf("len = %d", q.Len())
		}
		for i := 0; i < 3; i++ {
			outs, err := ct.Test("dequeue")
			if err != nil {
				t.Fatal(err)
			}
			if outs[0].Data()[0] != float64(i) {
				t.Fatalf("%s: dequeue %d got %g", b, i, outs[0].Data()[0])
			}
		}
	}
}

func TestFIFOQueueBlocksAndUnblocks(t *testing.T) {
	q := NewFIFOQueue("q", 1, 1)
	ct, err := exec.NewComponentTest("define-by-run", q.Component, exec.InputSpaces{
		"enqueue": {spaces.NewFloatBox().WithBatchRank()},
		"dequeue": {},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan float64, 1)
	go func() {
		outs, err := ct.Test("dequeue")
		if err != nil {
			done <- -1
			return
		}
		done <- outs[0].Data()[0]
	}()
	// Dequeue must block until a producer enqueues.
	select {
	case <-done:
		t.Fatal("dequeue returned on empty queue")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := ct.Test("enqueue", tensor.Full(7, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if v != 7 {
			t.Fatalf("dequeued %g", v)
		}
	case <-time.After(time.Second):
		t.Fatal("dequeue never unblocked")
	}
}

func TestFIFOQueueCloseUnblocksWaiters(t *testing.T) {
	q := NewFIFOQueue("q", 1, 1)
	ct, err := exec.NewComponentTest("define-by-run", q.Component, exec.InputSpaces{
		"enqueue": {spaces.NewFloatBox().WithBatchRank()},
		"dequeue": {},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := ct.Test("dequeue")
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	wg.Wait()
	if err := <-errCh; err == nil {
		t.Fatal("closed dequeue should error")
	}
}

func TestStagingAreaPipelines(t *testing.T) {
	s := NewStagingArea("stage", 1)
	ct, err := exec.NewComponentTest("define-by-run", s.Component, exec.InputSpaces{
		"put": {spaces.NewFloatBox().WithBatchRank()},
		"get": {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Test("put", tensor.Full(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Test("put", tensor.Full(2, 1)); err != nil {
		t.Fatal(err)
	}
	out, err := ct.Test("get")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Data()[0] != 1 {
		t.Fatalf("staged order wrong: got %g", out[0].Data()[0])
	}
	if s.Depth() != 1 {
		t.Fatalf("depth = %d", s.Depth())
	}
}

func TestStagingAreaEmptyGetErrors(t *testing.T) {
	s := NewStagingArea("stage", 1)
	ct, err := exec.NewComponentTest("define-by-run", s.Component, exec.InputSpaces{
		"put": {spaces.NewFloatBox().WithBatchRank()},
		"get": {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Test("get"); err == nil {
		t.Fatal("expected error on empty staging area")
	}
}
