package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestDeclarations checks that BENCHMARK.json and the tables in metrics.go
// say the same thing, within the limits the driver sets.
func TestDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", f.PerLayer, perLayer)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in json, %d in code", len(f.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %q, code %q", i, f.Workloads[i].Name, w.Name)
		}
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad or repeated name, or why too long", w.Name)
		}
		seen[w.Name] = true
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric %q: bad or repeated name", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %q: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(perLayer), len(endToEnd))
	}
}

// TestSmoke runs both passes of every workload for a moment and checks that
// every declared metric comes out, every oracle ran and held, the traced
// spans account for the wall clock, and the fleet leaves no goroutine behind.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		began := time.Now()
		before := runtime.NumGoroutine()
		for _, trace := range []bool{false, true} {
			o := opts{seed: 1, seconds: 0.5, trace: trace, smoke: true, outDir: dir}
			if trace {
				o.seconds = 1
			}
			out, err := w.run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			m, err := collect(out, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if len(m) != len(defsFor(trace)) {
				t.Errorf("%s trace=%v: %d metrics, %d declared", w.Name, trace, len(m), len(defsFor(trace)))
			}
			if !out.correct || out.failed != 0 || out.attempted < 1 || len(out.checks) == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d checks=%v",
					w.Name, trace, out.correct, out.failed, out.attempted, out.checks)
			}
			if trace && strings.HasPrefix(w.Name, "train_") {
				if u := out.values["driver.unaccounted_share"]; u > 0.05 {
					t.Errorf("%s: spans leave %.3f of the wall clock unaccounted", w.Name, u)
				}
				if _, err := os.Stat(dir + "/trace_" + w.Name + ".json"); err != nil {
					t.Error(err)
				}
			}
		}
		t.Logf("%s took %v", w.Name, time.Since(began))
		if w.Name != "serve_fleet" {
			// raysim parks one goroutine per stopped actor for good, by
			// design, and tensor starts its kernel workers once.
			continue
		}
		// Fleet goroutines end asynchronously after Shutdown returns; give
		// them a moment before counting.
		deadline := time.Now().Add(3 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines before, %d after Shutdown", w.Name, before, after)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.1}
	tight := func(m float64) summary {
		return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, Values: []float64{m * 0.99, m, m * 1.01}}
	}
	wide := func(m float64) summary {
		return summary{Median: m, Q1: m * 0.9, Q3: m * 1.1, Values: []float64{m * 0.9, m, m * 1.1}}
	}
	for _, c := range []struct {
		old, cur summary
		want     string
	}{
		{tight(10), tight(10.5), "same"},
		{tight(10), tight(11.5), "worse"},
		{tight(10), tight(8), "better"},
		{wide(10), wide(10.5), "unresolved"},
	} {
		if got := judge(d, c.old, c.cur); got != c.want {
			t.Errorf("judge(%v -> %v) = %s, want %s", c.old.Median, c.cur.Median, got, c.want)
		}
	}
}
