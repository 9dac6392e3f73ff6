package benchkit

import (
	"strings"
	"testing"
	"time"
)

// TestLiveBenchSmoke runs the full live trainer→fleet pipeline at smoke
// scale and holds it to the same LiveAcceptance gates the CLI prints (≥ 5
// published versions served, ≥ N−1 healthy with no eval error, exactly-once
// identities, no rollback), plus the three checks no gate covers. Run under
// -race this doubles as the concurrency check on the
// trainer/publisher/eval-client interleaving.
func TestLiveBenchSmoke(t *testing.T) {
	rep, err := LiveBench(LiveConfig{
		Duration:     2500 * time.Millisecond,
		Replicas:     2,
		Clients:      2,
		PublishEvery: 10,
		// No eval throttle: the smoke test wants episode completions, not a
		// representative trainer/serving CPU split.
		EvalPause: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrainerUpdates == 0 {
		t.Fatal("trainer made no updates")
	}
	if rep.PSVersion != int64(rep.TrainerPublished) {
		t.Fatalf("parameter server at v%d after %d pushes", rep.PSVersion, rep.TrainerPublished)
	}
	if rep.Episodes == 0 {
		t.Fatal("no eval episodes completed")
	}
	t.Logf("%d updates, %d versions published, %d served, %d episodes",
		rep.TrainerUpdates, rep.TrainerPublished, rep.ServedVersions, rep.Episodes)
	if err := FailedGates(LiveAcceptance(rep)); err != nil {
		t.Fatal(err)
	}
}

// TestLiveAcceptanceFails feeds LiveAcceptance a passing report doctored in
// one field at a time and checks that exactly the matching gate fails — the
// direction the smoke test cannot show, and what makes rlgraph-bench exit 1.
func TestLiveAcceptanceFails(t *testing.T) {
	good := LiveBenchReport{
		Replicas: 2, TrainerPublished: 8, ServedVersions: 7,
		MinHealthy: 1, IdentityExact: true,
	}
	if err := FailedGates(LiveAcceptance(&good)); err != nil {
		t.Fatalf("undoctored report: %v", err)
	}
	for _, tc := range []struct {
		gate   string
		doctor func(*LiveBenchReport)
	}{
		{"published versions served", func(r *LiveBenchReport) { r.ServedVersions = 0 }},
		{"fleet availability", func(r *LiveBenchReport) { r.EvalErrors = 1 }},
		{"fleet availability", func(r *LiveBenchReport) { r.MinHealthy = 0 }},
		{"exactly-once accounting", func(r *LiveBenchReport) { r.IdentityExact = false }},
		{"regression guard", func(r *LiveBenchReport) { r.Rollbacks = 1 }},
	} {
		rep := good
		tc.doctor(&rep)
		gates := LiveAcceptance(&rep)
		for _, g := range gates {
			if want := !strings.HasPrefix(g.Name, tc.gate); g.Pass != want {
				t.Errorf("doctored for %q: gate %q pass = %v, want %v", tc.gate, g.Name, g.Pass, want)
			}
		}
		if FailedGates(gates) == nil {
			t.Errorf("doctored for %q: FailedGates reported no failure", tc.gate)
		}
	}
}
