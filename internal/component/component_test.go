package component

import (
	"strings"
	"testing"

	"rlgraph/internal/graph"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
	"rlgraph/internal/vars"
)

func TestScopesNestOnAdd(t *testing.T) {
	root := New("root")
	mid := New("mid")
	leaf := New("leaf")
	mid.AddSub(leaf)
	root.AddSub(mid)
	if leaf.Scope() != "root/mid/leaf" {
		t.Fatalf("scope = %q", leaf.Scope())
	}
	if root.Subs()[0] != mid || mid.Subs()[0] != leaf {
		t.Fatal("sub lookup broken")
	}
	if root.NumComponents() != 3 {
		t.Fatalf("count = %d", root.NumComponents())
	}
}

func TestDuplicateSubPanics(t *testing.T) {
	root := New("root")
	root.AddSub(New("a"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate accepted")
		}
	}()
	root.AddSub(New("a"))
}

func TestDeviceInheritance(t *testing.T) {
	root := New("root")
	root.SetDevice("gpu0")
	child := New("child")
	root.AddSub(child)
	if child.Device() != "gpu0" {
		t.Fatalf("inherited device = %q", child.Device())
	}
	child.SetDevice("cpu0")
	if child.Device() != "cpu0" {
		t.Fatal("override lost")
	}
}

func TestDuplicateAPIPanics(t *testing.T) {
	c := New("c")
	c.DefineAPI("f", func(*Ctx, []*Rec) []*Rec { return nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate API accepted")
		}
	}()
	c.DefineAPI("f", func(*Ctx, []*Rec) []*Rec { return nil })
}

func TestCallUnknownAPIListsKnownOnes(t *testing.T) {
	c := New("c")
	c.DefineAPI("known", func(*Ctx, []*Rec) []*Rec { return nil })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unknown API accepted")
		}
		if !strings.Contains(r.(string), "known") {
			t.Fatalf("panic message unhelpful: %v", r)
		}
	}()
	c.Call(&Ctx{Mode: ModeAssemble, Stats: NewStats()}, "missing")
}

func TestAssembleModeRecordsEdgesWithoutExecution(t *testing.T) {
	executed := false
	c := New("c")
	c.DefineAPI("f", func(ctx *Ctx, in []*Rec) []*Rec {
		return c.GraphFn(ctx, "fn", 2, func(*graph.Graph, []*graph.Node) []*graph.Node {
			executed = true
			return nil
		}, in...)
	})
	stats := NewStats()
	out := c.Call(&Ctx{Mode: ModeAssemble, Stats: stats}, "f", &Rec{})
	if executed {
		t.Fatal("graph fn executed during assembly")
	}
	if len(out) != 2 {
		t.Fatalf("assembly outputs = %d, want declared arity 2", len(out))
	}
	if stats.APICalls != 1 || stats.GraphFnCalls != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if !stats.ComponentsSeen["c"] {
		t.Fatal("component not recorded")
	}
}

type varOwner struct {
	*Component
	created int
}

func (v *varOwner) CreateVariables(in []spaces.Space) error {
	v.created++
	v.AddVariable(vars.New("w", tensor.New(in[0].Shape()...)))
	return nil
}

func TestVariableCreationBarrierFiresOnce(t *testing.T) {
	v := &varOwner{Component: New("owner")}
	v.SetImpl(v)
	v.DefineAPI("f", func(ctx *Ctx, in []*Rec) []*Rec {
		return v.GraphFn(ctx, "fn", 1, func(_ *graph.Graph, refs []*graph.Node) []*graph.Node {
			return refs
		}, in...)
	})
	g := graph.NewBuildPass()
	ctx := &Ctx{Mode: ModeCompile, G: g, Stats: NewStats()}
	in := NewRec(graph.Const(g, tensor.New(1, 3)), spaces.NewFloatBox(3).WithBatchRank())
	v.Call(ctx, "f", in)
	v.Call(ctx, "f", in)
	if v.created != 1 {
		t.Fatalf("CreateVariables ran %d times", v.created)
	}
	if !v.varsCreated {
		t.Fatal("barrier flag not set")
	}
	if v.variables.Len() != 1 {
		t.Fatal("variable not registered")
	}
	if got := v.variables.All()[0].Name; got != "owner/w" {
		t.Fatalf("scoped name = %q", got)
	}
}

func TestVarCreatorFnRestriction(t *testing.T) {
	v := &varOwner{Component: New("owner")}
	v.SetImpl(v)
	v.SetVarCreatorFns("writer")
	v.DefineAPI("read", func(ctx *Ctx, in []*Rec) []*Rec {
		return v.GraphFn(ctx, "reader", 1, func(_ *graph.Graph, refs []*graph.Node) []*graph.Node {
			return refs
		}, in...)
	})
	g := graph.NewBuildPass()
	ctx := &Ctx{Mode: ModeCompile, G: g, Stats: NewStats()}
	defer func() {
		if recover() == nil {
			t.Fatal("expected input-incompleteness panic")
		}
	}()
	v.Call(ctx, "read", NewRec(graph.Const(g, tensor.New(1, 2)), nil))
}

func TestSpaceFromShape(t *testing.T) {
	sp := SpaceFromShape([]int{-1, 4})
	if !sp.HasBatchRank() || sp.Shape()[0] != 4 {
		t.Fatalf("space = %v", sp)
	}
	scalar := SpaceFromShape(nil)
	if scalar.HasBatchRank() {
		t.Fatal("scalar got batch rank")
	}
}

func TestAllVariablesDepthFirst(t *testing.T) {
	root := New("root")
	a := &varOwner{Component: New("a")}
	a.SetImpl(a)
	root.AddSub(a.Component)
	a.AddVariable(vars.New("w", tensor.New(1)))
	all := root.AllVariables()
	if all.Len() != 1 || all.All()[0].Name != "root/a/w" {
		t.Fatalf("vars = %v", all.All())
	}
	if len(root.TrainableVariables()) != 1 {
		t.Fatal("trainables missing")
	}
}

func TestWalkVisitsAll(t *testing.T) {
	root := New("root")
	root.AddSub(New("a"))
	b := New("b")
	b.AddSub(New("c"))
	root.AddSub(b)
	var seen []string
	root.Walk(func(c *Component) { seen = append(seen, c.Name()) })
	if len(seen) != 4 || seen[0] != "root" {
		t.Fatalf("walk = %v", seen)
	}
}
