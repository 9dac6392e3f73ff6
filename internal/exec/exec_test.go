package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rlgraph/internal/component"
	"rlgraph/internal/devices"
	"rlgraph/internal/graph"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

// scaler is a minimal component with one variable (a learned scale) and two
// API methods, one of which depends on the other's graph fn.
type scaler struct {
	*component.Component
	w       *vars.Variable
	initVal float64
}

func newScaler(name string, init float64) *scaler {
	s := &scaler{Component: component.New(name)}
	s.SetImpl(s)
	s.initVal = init
	s.DefineAPI("apply", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return s.GraphFn(ctx, "scale", 1, func(g *graph.Graph, refs []*graph.Node) []*graph.Node {
			return []*graph.Node{graph.Mul(g, refs[0], graph.VarRead(g, s.w))}
		}, in...)
	})
	s.DefineAPI("apply_twice", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		once := s.Call(ctx, "apply", in...)
		return s.Call(ctx, "apply", once...)
	})
	return s
}

func (s *scaler) CreateVariables(inSpaces []spaces.Space) error {
	s.w = s.AddVariable(vars.New("w", tensor.Scalar(s.initVal)))
	return nil
}

// pipelineRoot nests two scalers and exposes a combined API.
func pipelineRoot() (*component.Component, *scaler, *scaler) {
	root := component.New("root")
	a := newScaler("a", 2)
	b := newScaler("b", 5)
	root.AddSub(a.Component)
	root.AddSub(b.Component)
	root.DefineAPI("forward", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		mid := a.Call(ctx, "apply", in...)
		return b.Call(ctx, "apply", mid...)
	})
	return root, a, b
}

func inSpec() InputSpaces {
	return InputSpaces{"forward": {spaces.NewFloatBox(3).WithBatchRank()}}
}

func TestStaticExecutorEndToEnd(t *testing.T) {
	root, _, _ := pipelineRoot()
	ex := NewStatic(root)
	rep, err := ex.Build(inSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumComponents != 3 {
		t.Fatalf("components = %d", rep.NumComponents)
	}
	if rep.GraphNodes == 0 {
		t.Fatal("no graph nodes created")
	}
	in := tensor.FromSlice([]float64{1, 2, 3}, 1, 3)
	out, err := ex.Execute("forward", in)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.FromSlice([]float64{10, 20, 30}, 1, 3)
	if !out[0].Equal(want) {
		t.Fatalf("got %v", out[0])
	}
	// One Execute = one session run, regardless of graph size.
	if ex.Session().RunCount() != 1 {
		t.Fatalf("session runs = %d, want 1", ex.Session().RunCount())
	}
}

func TestDefineByRunExecutorEndToEnd(t *testing.T) {
	root, _, _ := pipelineRoot()
	ex := NewDefineByRun(root)
	if _, err := ex.Build(inSpec()); err != nil {
		t.Fatal(err)
	}
	in := tensor.FromSlice([]float64{1, 2, 3}, 1, 3)
	out, err := ex.Execute("forward", in)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.FromSlice([]float64{10, 20, 30}, 1, 3)
	if !out[0].Equal(want) {
		t.Fatalf("got %v", out[0])
	}
}

func TestBothBackendsAgreeOnPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := tensor.RandNormal(rng, 0, 1, 4, 3)
	var results []*tensor.Tensor
	for _, b := range Backends() {
		root, _, _ := pipelineRoot()
		ct, err := NewComponentTest(b, root, inSpec())
		if err != nil {
			t.Fatal(err)
		}
		out, err := ct.Test1("forward", in)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, out)
	}
	if !results[0].Equal(results[1]) {
		t.Fatal("backends disagree")
	}
}

// TestStatefulFailuresAreErrorsOnBothBackends runs a host function that
// fails, or that returns fewer or more outputs than StatefulMulti declared:
// on both backends Execute returns the evaluation error, wrapping the cause.
func TestStatefulFailuresAreErrorsOnBothBackends(t *testing.T) {
	kaput := errors.New("kaput")
	cases := []struct {
		name  string
		outs  int
		err   error
		cause string
	}{
		{"fewer", 1, nil, "returned 1 outputs, want 2"},
		{"more", 3, nil, "returned 3 outputs, want 2"},
		{"fn error", 2, kaput, "kaput"},
	}
	for _, c := range cases {
		for _, b := range Backends() {
			root := component.New("root")
			root.DefineAPI("sample", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
				return root.GraphFn(ctx, "sample", 2, func(g *graph.Graph, refs []*graph.Node) []*graph.Node {
					return graph.StatefulMulti(g, "Host", [][]int{{-1}, {-1}}, func(ts []*tensor.Tensor) ([]*tensor.Tensor, error) {
						out := make([]*tensor.Tensor, c.outs)
						for i := range out {
							out[i] = ts[0].Clone()
						}
						return out, c.err
					}, refs...)
				}, in...)
			})
			ct, err := NewComponentTest(b, root, InputSpaces{"sample": {spaces.NewFloatBox().WithBatchRank()}})
			if err != nil {
				t.Fatal(err)
			}
			_, err = ct.Test("sample", tensor.Ones(4))
			if err == nil || !strings.HasPrefix(err.Error(), "graph: evaluating ") || !strings.HasSuffix(err.Error(), c.cause) {
				t.Fatalf("%s, %s: err = %v", c.name, b, err)
			}
			if c.err != nil && !errors.Is(err, c.err) {
				t.Fatalf("%s, %s: %v does not wrap %v", c.name, b, err, c.err)
			}
		}
	}
}

// TestNewPicksBackendByName: the empty backend name is the static default,
// and an unknown name is an error naming it.
func TestNewPicksBackendByName(t *testing.T) {
	for name, want := range map[string]string{"": "static", "static": "static", "define-by-run": "define-by-run"} {
		root, _, _ := pipelineRoot()
		ex, err := New(name, root)
		if err != nil || ex.BackendName() != want {
			t.Fatalf("New(%q): %v, %v", name, ex, err)
		}
	}
	root, _, _ := pipelineRoot()
	if _, err := New("eager", root); err == nil || !strings.Contains(err.Error(), `"eager"`) {
		t.Fatalf("unknown backend: err = %v", err)
	}
}

func TestComponentTestSampling(t *testing.T) {
	root, _, _ := pipelineRoot()
	ct, err := NewComponentTest("static", root, inSpec())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	outs, err := ct.TestWithSamples("forward", rng, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(outs[0].Shape(), []int{7, 3}) {
		t.Fatalf("shape = %v", outs[0].Shape())
	}
}

func TestNestedAPIMethodsShareVariables(t *testing.T) {
	// apply_twice composes the component's own API method twice; the
	// variable must be created exactly once.
	s := newScaler("s", 3)
	ct, err := NewComponentTest("static", s.Component, InputSpaces{
		"apply":       {spaces.NewFloatBox(2).WithBatchRank()},
		"apply_twice": {spaces.NewFloatBox(2).WithBatchRank()},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ct.Test1("apply_twice", tensor.FromSlice([]float64{1, 1}, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[0] != 9 {
		t.Fatalf("apply_twice = %v, want 9", out)
	}
	if n := s.AllVariables().Len(); n != 1 {
		t.Fatalf("variables = %d, want 1", n)
	}
}

func TestMissingInputSpacesError(t *testing.T) {
	root, _, _ := pipelineRoot()
	ex := NewStatic(root)
	if _, err := ex.Build(InputSpaces{}); err == nil {
		t.Fatal("expected error for missing input spaces")
	}
}

func TestUnknownAPIError(t *testing.T) {
	root, _, _ := pipelineRoot()
	ex := NewStatic(root)
	if _, err := ex.Build(inSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Execute("nope"); err == nil {
		t.Fatal("expected error for unknown API")
	}
}

func TestBuildReportHasPhaseTimings(t *testing.T) {
	root, _, _ := pipelineRoot()
	ex := NewStatic(root)
	rep, err := ex.Build(inSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceTime < 0 || rep.BuildTime <= 0 {
		t.Fatalf("timings: %+v", rep)
	}
	if rep.APICalls == 0 || rep.GraphFnCalls == 0 {
		t.Fatalf("counts: %+v", rep)
	}
	if fmt.Sprint(rep) == "" {
		t.Fatal("empty report string")
	}
}

func TestDeviceAssignmentPropagatesToNodes(t *testing.T) {
	root, a, b := pipelineRoot()
	a.SetDevice("gpu0")
	b.SetDevice("cpu0")
	ex := NewStatic(root)
	if _, err := ex.Build(inSpec()); err != nil {
		t.Fatal(err)
	}
	devs := map[string]bool{}
	for _, n := range ex.Graph().Nodes() {
		devs[n.Device()] = true
	}
	if !devs["gpu0"] || !devs["cpu0"] {
		t.Fatalf("devices seen: %v", devs)
	}
}

func TestDeviceMapAssignsByScopePrefix(t *testing.T) {
	root, a, b := pipelineRoot()
	n := DeviceMap{
		"root":   "cpu0",
		"root/b": "gpu0", // more specific: wins for b
	}.Apply(root)
	if n != 3 {
		t.Fatalf("assigned %d components", n)
	}
	if a.Device() != "cpu0" || b.Device() != "gpu0" || root.Device() != "cpu0" {
		t.Fatalf("devices: root=%q a=%q b=%q", root.Device(), a.Device(), b.Device())
	}
	ex := NewStatic(root)
	if _, err := ex.Build(inSpec()); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, nd := range ex.Graph().Nodes() {
		counts[nd.Device()]++
	}
	if counts["gpu0"] == 0 || counts["cpu0"] == 0 {
		t.Fatalf("node device counts: %v", counts)
	}
}

func TestDeviceMapNoFalsePrefixMatch(t *testing.T) {
	root := component.New("root")
	ab := component.New("ab")
	root.AddSub(ab)
	DeviceMap{"root/a": "gpu0"}.Apply(root)
	if ab.Device() == "gpu0" {
		t.Fatal("prefix 'root/a' must not match scope 'root/ab'")
	}
}

func TestExecuteValidatesFeedShapes(t *testing.T) {
	root, _, _ := pipelineRoot()
	ex := NewStatic(root)
	if _, err := ex.Build(inSpec()); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   *tensor.Tensor
	}{
		{"rank mismatch", tensor.FromSlice([]float64{1, 2, 3}, 3)},
		{"dim mismatch", tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)},
		{"nil tensor", nil},
	}
	for _, c := range cases {
		_, err := ex.Execute("forward", c.in)
		if err == nil {
			t.Fatalf("%s: accepted bad input", c.name)
		}
		msg := err.Error()
		if !strings.Contains(msg, `Execute("forward") argument 0`) {
			t.Fatalf("%s: error does not name API and argument: %v", c.name, err)
		}
	}
	// The batch rank is -1: any batch size passes.
	if _, err := ex.Execute("forward", tensor.FromSlice(make([]float64, 21), 7, 3)); err != nil {
		t.Fatalf("wildcard batch dim rejected: %v", err)
	}
}

func TestExecuteUsesPrecompiledPlans(t *testing.T) {
	root, _, _ := pipelineRoot()
	ex := NewStatic(root)
	if _, err := ex.Build(inSpec()); err != nil {
		t.Fatal(err)
	}
	compiled := ex.Session().CompiledPlans()
	if compiled == 0 {
		t.Fatal("Build compiled no plans")
	}
	for i := 0; i < 5; i++ {
		if _, err := ex.Execute("forward", tensor.FromSlice([]float64{1, 2, 3}, 1, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if got := ex.Session().CompiledPlans(); got != compiled {
		t.Fatalf("Execute compiled new plans: %d -> %d", compiled, got)
	}
}

func TestParallelExecuteMatchesSerial(t *testing.T) {
	in := tensor.RandNormal(rand.New(rand.NewSource(3)), 0, 1, 4, 3)
	run := func(workers int) *tensor.Tensor {
		root, _, _ := pipelineRoot()
		ex := NewStatic(root)
		if _, err := ex.Build(inSpec()); err != nil {
			t.Fatal(err)
		}
		ex.Session().SetParallelism(workers)
		out, err := ex.Execute("forward", in)
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	if serial, par := run(1), run(4); !serial.Equal(par) {
		t.Fatalf("parallel Execute diverged: %v vs %v", par, serial)
	}
}

func TestDeviceMapStreamLimits(t *testing.T) {
	reg := devices.NewRegistry(
		devices.Device{Name: "gpu0", Kind: devices.GPU, Streams: 4},
		devices.Device{Name: "cpu0", Kind: devices.CPU},
	)
	m := DeviceMap{"root": "cpu0", "root/b": "gpu0", "root/c": "tpu9"}
	limits := m.StreamLimits(reg)
	want := map[string]int{"cpu0": 1, "gpu0": 4, "tpu9": 1}
	if len(limits) != len(want) {
		t.Fatalf("limits = %v", limits)
	}
	for k, v := range want {
		if limits[k] != v {
			t.Fatalf("limits[%q] = %d, want %d", k, limits[k], v)
		}
	}
	if nil2 := (DeviceMap{"root": "gpu0"}).StreamLimits(nil); nil2["gpu0"] != 1 {
		t.Fatalf("nil registry: %v", nil2)
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
