package benchkit

import (
	"testing"
	"time"
)

func TestFig5aReportsBothBackendsAndArchitectures(t *testing.T) {
	rows, err := Fig5a()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var dqnComponents int
	for _, r := range rows {
		if r.BuildSec <= 0 {
			t.Fatalf("non-positive build time: %+v", r)
		}
		if r.Architecture == "DQN" {
			dqnComponents = r.Components
		}
	}
	// The paper's DQN had 43 components; ours must be the same order.
	if dqnComponents < 25 {
		t.Fatalf("DQN has only %d components", dqnComponents)
	}
}

func TestFig5bShapes(t *testing.T) {
	rows, err := Fig5b([]int{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FPS <= 0 {
			t.Fatalf("non-positive fps: %+v", r)
		}
	}
}

func TestFig6Smoke(t *testing.T) {
	rows, err := Fig6([]int{1}, 300*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FPS <= 0 {
			t.Fatalf("fps = %g for %s", r.FPS, r.Kind)
		}
	}
}

func TestFig7aSmoke(t *testing.T) {
	rows, err := Fig7a([]int{10}, []int{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig8Smoke(t *testing.T) {
	rows, err := Fig8([]int{1, 2}, 2, 1000 /* unreachable */, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig9Smoke(t *testing.T) {
	rows, err := Fig9([]int{1}, 250*time.Millisecond, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FPS <= 0 {
			t.Fatalf("fps = %g for %s", r.FPS, r.Variant)
		}
	}
}

func TestScalesAreSane(t *testing.T) {
	for _, s := range []Scale{LaptopScale(), QuickScale()} {
		if len(s.ApexWorkers) == 0 || len(s.TaskSizes) == 0 || len(s.ActEnvCounts) == 0 {
			t.Fatalf("empty sweep in %+v", s)
		}
		if s.PongPoints <= 0 || s.LearnMaxTime <= 0 {
			t.Fatalf("bad scale %+v", s)
		}
	}
}
