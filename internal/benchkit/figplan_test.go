package benchkit

import "testing"

func TestPlanBenchSmoke(t *testing.T) {
	results, err := PlanBench(256, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.BaselineNsOp <= 0 || r.PlanNsOp <= 0 || r.Nodes <= 0 {
			t.Fatalf("degenerate result: %+v", r)
		}
	}
	// No timing ratio here: under -race sync.Pool drops Puts and the plan path
	// reads below 1x. The >= 2x chain gate lives in non-race -fig plan.
	if results[0].Workload != "chain" {
		t.Fatalf("first workload = %q, want chain", results[0].Workload)
	}
}
