package nn

import (
	"encoding/json"
	"fmt"

	"rlgraph/internal/component"
	"rlgraph/internal/graph"
)

// LayerSpec declares one layer of a network in a declarative configuration
// (the JSON documents of the paper's agent API, §3.4).
type LayerSpec struct {
	// Type is "dense", "conv2d", "flatten", "dueling" or "lstm".
	Type string `json:"type"`
	// Units is the output width for dense layers.
	Units int `json:"units,omitempty"`
	// Activation names the nonlinearity ("relu", "tanh", or "" for none).
	Activation string `json:"activation,omitempty"`
	// Filters/Kernel/Stride/Padding configure conv2d layers.
	Filters int    `json:"filters,omitempty"`
	Kernel  int    `json:"kernel,omitempty"`
	Stride  int    `json:"stride,omitempty"`
	Padding string `json:"padding,omitempty"`
	// Actions is the action count for dueling heads.
	Actions int `json:"actions,omitempty"`
}

// NeuralNetwork stacks layer components and exposes a single "call" API that
// chains their API methods — the canonical example of component composition.
type NeuralNetwork struct {
	*component.Component
	layers []*component.Component
}

// caller is any layer component exposing "call".
func callLayer(ctx *component.Ctx, layer *component.Component, in []*component.Rec) []*component.Rec {
	return layer.Call(ctx, "call", in...)
}

// NewNetwork builds a network from layer specs. seed derives per-layer
// initialization seeds deterministically.
func NewNetwork(name string, specs []LayerSpec, seed int64) (*NeuralNetwork, error) {
	n := &NeuralNetwork{Component: component.New(name)}
	for i, sp := range specs {
		var c *component.Component
		lname := fmt.Sprintf("layer%d-%s", i, sp.Type)
		lseed := seed + int64(i)*7919
		switch sp.Type {
		case "dense":
			c = NewDense(lname, sp.Units, sp.Activation, lseed).Component
		case "conv2d":
			stride := sp.Stride
			if stride == 0 {
				stride = 1
			}
			c = NewConv2D(lname, sp.Filters, sp.Kernel, stride, sp.Padding, sp.Activation, lseed).Component
		case "flatten":
			c = NewFlatten(lname).Component
		case "dueling":
			c = NewDuelingHead(lname, sp.Units, sp.Actions, lseed).Component
		case "lstm":
			c = NewLSTM(lname, sp.Units, lseed).Component
		default:
			return nil, fmt.Errorf("nn: unknown layer type %q", sp.Type)
		}
		n.layers = append(n.layers, c)
		n.AddSub(c)
	}
	n.DefineAPI("call", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		out := in
		for _, l := range n.layers {
			out = callLayer(ctx, l, out)
		}
		return out
	})
	return n, nil
}

// MustNetwork is NewNetwork, panicking on config errors.
func MustNetwork(name string, specs []LayerSpec, seed int64) *NeuralNetwork {
	n, err := NewNetwork(name, specs, seed)
	if err != nil {
		panic(err)
	}
	return n
}

// ParseNetworkSpec decodes a JSON array of layer specs.
func ParseNetworkSpec(data []byte) ([]LayerSpec, error) {
	var specs []LayerSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("nn: parsing network spec: %w", err)
	}
	return specs, nil
}

// DuelingHead maps features to Q-values via separate value and advantage
// streams: Q = V + A - mean(A) (Wang et al.; the architecture used in the
// paper's Fig. 5 workloads).
type DuelingHead struct {
	*component.Component
	valueHidden *Dense
	valueOut    *Dense
	advHidden   *Dense
	advOut      *Dense
}

// NewDuelingHead returns a dueling head with `hidden` units per stream and
// `actions` outputs.
func NewDuelingHead(name string, hidden, actions int, seed int64) *DuelingHead {
	if hidden <= 0 {
		hidden = 64
	}
	d := &DuelingHead{Component: component.New(name)}
	d.valueHidden = NewDense("value-hidden", hidden, "relu", seed+1)
	d.valueOut = NewDense("value-out", 1, "", seed+2)
	d.advHidden = NewDense("adv-hidden", hidden, "relu", seed+3)
	d.advOut = NewDense("adv-out", actions, "", seed+4)
	d.AddSub(d.valueHidden.Component)
	d.AddSub(d.valueOut.Component)
	d.AddSub(d.advHidden.Component)
	d.AddSub(d.advOut.Component)
	d.DefineAPI("call", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		v := d.valueOut.Call(ctx, "call", d.valueHidden.Call(ctx, "call", in...)...)
		a := d.advOut.Call(ctx, "call", d.advHidden.Call(ctx, "call", in...)...)
		return d.GraphFn(ctx, "combine", 1, func(g *graph.Graph, refs []*graph.Node) []*graph.Node {
			val, adv := refs[0], refs[1]
			centered := graph.Sub(g, adv, graph.MeanAxis(g, adv, -1, true))
			return []*graph.Node{graph.Add(g, val, centered)}
		}, v[0], a[0])
	})
	return d
}
