// Command bench is the repository's regression benchmark: four workloads,
// a handful of end-to-end metrics every workload reports, and a traced pass
// that attributes time to layers from outside the program. See README.md.
//
//	bash bench/run.sh --workload train_dense --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                       # every workload, both passes
//	bash bench/run.sh compare old.json new.json
//	bash bench/run.sh declare > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// header says where a result came from; results compare only at equal
// nproc.
type header struct {
	Commit     string  `json:"commit"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// metricValue is one reported number, in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the last line of standard output in single-workload mode.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "declare" {
		declare()
		return
	}
	workload := flag.String("workload", "", "run only this workload and end with one JSON line (default: all, both passes)")
	seed := flag.Int64("seed", 1, "seeds the environments, the observation pool and the arrival process")
	seconds := flag.Float64("seconds", runSeconds, "length of each timed region")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end pass, 1 = traced pass")
	runs := flag.Int("runs", 1, "without -workload: repetitions of the end-to-end pass")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for result.json and trace_<workload>.json")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	o := opts{seed: *seed, seconds: *seconds, outDir: *outDir, hdr: header{
		Commit: os.Getenv("BENCH_COMMIT"), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: *seed, Seconds: *seconds,
	}}
	fmt.Printf("bench: commit=%s nproc=%d gomaxprocs=%d %s seed=%d seconds=%g\n",
		o.hdr.Commit, o.hdr.NProc, o.hdr.GOMAXPROCS, o.hdr.GoVersion, o.seed, o.seconds)

	var err error
	if *workload != "" {
		o.trace = *trace == 1
		err = runOne(*workload, o)
	} else {
		err = runAll(o, *runs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runSeconds is the run length BENCHMARK.json asks the driver for.
const runSeconds = 20

// declare prints BENCHMARK.json from the tables in metrics.go, so the file
// is written by "bash bench/run.sh declare > BENCHMARK.json", not by hand.
func declare() {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	_ = enc.Encode(benchmarkFile{ // a write error on stdout has nowhere to be reported
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer,
	})
}

// benchmarkFile is BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// defsFor is the metric table one pass reports.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// collect picks the pass's declared metrics out of an outcome. An
// end-to-end metric must be present and positive on every workload; a layer
// metric the workload never touched is 0.
func collect(out *outcome, trace bool) (map[string]metricValue, error) {
	m := map[string]metricValue{}
	for _, d := range defsFor(trace) {
		v, ok := out.values[d.Name]
		if !trace && (!ok || !(v > 0)) {
			return nil, fmt.Errorf("end-to-end metric %s missing or not positive (%v)", d.Name, v)
		}
		m[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return m, nil
}

// printOutcome lists every metric of the pass by name with its unit, the
// sample count behind each percentile, and the checks that ran.
func printOutcome(name string, out *outcome, m map[string]metricValue, trace bool) {
	for _, d := range defsFor(trace) {
		fmt.Printf("  %-12s %-34s %14.6g %s", name, d.Name, m[d.Name].Value, d.Unit)
		if n, ok := out.samples[d.Name]; ok {
			fmt.Printf("  (n=%d)", n)
		}
		fmt.Println()
	}
	for _, c := range out.checks {
		fmt.Printf("  %-12s check %s\n", name, c)
	}
	fmt.Printf("  %-12s attempted=%d failed=%d correct=%v\n", name, out.attempted, out.failed, out.correct)
}

// runOne is the driver's mode: one workload, one pass, one JSON line last.
func runOne(name string, o opts) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	out, err := w.run(o)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	m, err := collect(out, o.trace)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	printOutcome(name, out, m, o.trace)
	enc, err := json.Marshal(line{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: m})
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}

// summary is one end-to-end metric over repeated runs.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// workloadResult is one workload's part of result.json.
type workloadResult struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

// resultFile is bench/out/result.json, the input of compare.
type resultFile struct {
	Header    header                    `json:"header"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// runAll runs every workload: the end-to-end pass runs times, then the
// traced pass, and writes result.json.
func runAll(o opts, runs int) error {
	res := resultFile{Header: o.hdr, Workloads: map[string]workloadResult{}}
	for _, w := range workloads {
		wr := workloadResult{Correct: true, EndToEnd: map[string]summary{}, PerLayer: map[string]float64{}}
		values := map[string][]float64{}
		for r := 0; r < runs; r++ {
			o.trace = false
			runtime.GC() // drop the previous pass's heap, so its size does not set this pass's GC pace
			out, err := w.run(o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			m, err := collect(out, false)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			fmt.Printf("%s end-to-end pass %d/%d\n", w.Name, r+1, runs)
			printOutcome(w.Name, out, m, false)
			for name, v := range m {
				values[name] = append(values[name], v.Value)
			}
			wr.Correct = wr.Correct && out.correct
			wr.Attempted += out.attempted
			wr.Failed += out.failed
		}
		for name, vs := range values {
			q1, q2, q3 := quartiles(vs)
			wr.EndToEnd[name] = summary{Median: q2, Q1: q1, Q3: q3, Values: vs}
		}
		o.trace = true
		runtime.GC()
		out, err := w.run(o)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.Name, err)
		}
		m, err := collect(out, true)
		if err != nil {
			return err
		}
		fmt.Printf("%s traced pass\n", w.Name)
		printOutcome(w.Name, out, m, true)
		for name, v := range m {
			wr.PerLayer[name] = v.Value
		}
		wr.Correct = wr.Correct && out.correct
		res.Workloads[w.Name] = wr
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	enc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.outDir, "result.json")
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	names := make([]string, 0, len(res.Workloads))
	for n, w := range res.Workloads {
		if !w.Correct || w.Failed > 0 {
			names = append(names, n)
		}
	}
	if len(names) > 0 {
		sort.Strings(names)
		return fmt.Errorf("incorrect output or failed operations on %v", names)
	}
	return nil
}
