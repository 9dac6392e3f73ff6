package exec

import (
	"math"
	"strings"
	"testing"

	"rlgraph/internal/devices"
	"rlgraph/internal/partition"
	"rlgraph/internal/raysim"
	"rlgraph/internal/tensor"
)

// TestPartitionedExecutionMatchesLocal: routing Execute through the
// partitioned build path (fragments on cpu0/gpu0 hosted in raysim actors)
// must reproduce the local session path bit for bit, and disabling it must
// return Execute to the local path.
func TestPartitionedExecutionMatchesLocal(t *testing.T) {
	root, a, b := pipelineRoot()
	a.SetDevice("cpu0")
	b.SetDevice("gpu0")
	ex := NewStatic(root)
	ex.SetDeviceRegistry(devices.DefaultRegistry(1))
	if _, err := ex.Build(inSpec()); err != nil {
		t.Fatal(err)
	}
	in := tensor.FromSlice([]float64{1.5, -2, 3}, 1, 3)
	want, err := ex.Execute("forward", in)
	if err != nil {
		t.Fatal(err)
	}

	cluster := raysim.NewCluster(raysim.Config{})
	ds, err := ex.EnablePartitionedExecution(cluster, partition.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ex.PartitionedExecution() != ds {
		t.Fatal("PartitionedExecution() does not expose the session")
	}
	if _, err := ex.EnablePartitionedExecution(cluster, partition.DefaultConfig()); err == nil {
		t.Fatal("double enable accepted")
	}
	got, err := ex.Execute("forward", in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		wd, gd := want[i].Data(), got[i].Data()
		for j := range wd {
			if math.Float64bits(wd[j]) != math.Float64bits(gd[j]) {
				t.Fatalf("output %d diverged: %v vs %v", i, got[i], want[i])
			}
		}
	}

	phs, fetches := ex.Registry("forward")
	infos, part, err := ds.Describe(fetches, phs)
	if err != nil {
		t.Fatal(err)
	}
	devsSeen := map[string]bool{}
	for _, info := range infos {
		devsSeen[info.Device] = true
	}
	if len(infos) < 2 || !devsSeen["cpu0"] || !devsSeen["gpu0"] {
		t.Fatalf("expected fragments on both devices, got %+v", infos)
	}
	if part.NumCutValues() == 0 {
		t.Fatal("cpu0->gpu0 pipeline must have a cut value edge")
	}
	if m := ds.Metrics(); m.Runs != 1 || m.CutValuesSent == 0 {
		t.Fatalf("distributed metrics: %+v", m)
	}

	ex.DisablePartitionedExecution()
	if ex.PartitionedExecution() != nil {
		t.Fatal("still partitioned after disable")
	}
	runs := ex.Session().RunCount()
	if _, err := ex.Execute("forward", in); err != nil {
		t.Fatal(err)
	}
	if ex.Session().RunCount() != runs+1 {
		t.Fatal("Execute did not return to the local session path")
	}
}

// TestDeviceRegistryValidatesPlacementAtBuild: with an inventory wired in,
// placing a component on a device outside it must fail Build with an error
// naming the device and listing the known ones.
func TestDeviceRegistryValidatesPlacementAtBuild(t *testing.T) {
	root, _, b := pipelineRoot()
	b.SetDevice("gpu7")
	ex := NewStatic(root)
	ex.SetDeviceRegistry(devices.DefaultRegistry(1)) // cpu0, gpu0
	_, err := ex.Build(inSpec())
	if err == nil {
		t.Fatal("Build accepted a placement on an uninventoried device")
	}
	for _, frag := range []string{"gpu7", "cpu0", "gpu0"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q should mention %q", err, frag)
		}
	}

	// The same graph with a valid placement builds, and clearing the registry
	// disables validation entirely.
	root2, _, b2 := pipelineRoot()
	b2.SetDevice("gpu7")
	ex2 := NewStatic(root2)
	ex2.SetDeviceRegistry(devices.DefaultRegistry(1))
	ex2.SetDeviceRegistry(nil)
	if _, err := ex2.Build(inSpec()); err != nil {
		t.Fatalf("validation should be disabled: %v", err)
	}
}
