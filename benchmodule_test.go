package rlgraph

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets type-checks and vets the regression benchmark's
// module. bench/ is its own module (replace rlgraph => ../), so go build ./...
// and go test ./... never compile it: without this test, a change that
// breaks a call bench/ makes into internal/ passes every other tier-1 check
// and fails only when bench/run.sh builds the benchmark. It runs under
// run.sh's environment: no workspace, no proxy, no VCS stamping.
func TestBenchModuleVets(t *testing.T) {
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOFLAGS=-buildvcs=false", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/: %v\n%s", err, out)
	}
}
