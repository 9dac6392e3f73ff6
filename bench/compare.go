package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareMain implements "bench compare old.json new.json": one row per
// (end-to-end metric, workload) with old, new, the ratio new/old, the bound
// and a verdict. It returns 1 if any row is worse, 2 on bad input.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare old.json new.json")
		return 2
	}
	var files [2]resultFile
	for i, path := range args {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %s: %v\n", path, err)
			return 2
		}
	}
	old, cur := files[0], files[1]
	if old.Header.NProc != cur.Header.NProc || old.Header.Seconds != cur.Header.Seconds {
		fmt.Printf("warning: nproc %d vs %d, seconds %g vs %g: results compare only at equal machine shape and run length\n",
			old.Header.NProc, cur.Header.NProc, old.Header.Seconds, cur.Header.Seconds)
	}
	fmt.Printf("old %s  new %s  (ratio = new/old)\n", old.Header.Commit, cur.Header.Commit)
	fmt.Printf("%-12s %-13s %12s %12s %8s %6s  %s\n", "workload", "metric", "old", "new", "ratio", "bound", "verdict")
	status := 0
	for _, w := range workloads {
		ow, okOld := old.Workloads[w.Name]
		nw, okNew := cur.Workloads[w.Name]
		if !okOld || !okNew {
			fmt.Printf("%-12s missing from one file\n", w.Name)
			status = 1
			continue
		}
		for _, d := range endToEnd {
			o, n := ow.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			v := judge(d, o, n)
			if v == "worse" {
				status = 1
			}
			fmt.Printf("%-12s %-13s %12.6g %12.6g %8.4f %6.2f  %s\n",
				w.Name, d.Name, o.Median, n.Median, ratio(n.Median, o.Median), d.Bound, v)
		}
		if nw.Failed > ow.Failed || (ow.Correct && !nw.Correct) {
			fmt.Printf("%-12s failed %d -> %d, correct %v -> %v  worse\n", w.Name, ow.Failed, nw.Failed, ow.Correct, nw.Correct)
			status = 1
		}
	}
	return status
}

// judge judges one metric on one workload. A median that moved by more
// than the bound is better or worse. Otherwise the row is same, unless
// either side's own runs spread (q3-q1) wider than the bound: then the
// comparison cannot tell, and the row is unresolved unless every new run
// beats every old one.
func judge(d metricDef, old, cur summary) string {
	if old.Median == 0 {
		return "unresolved"
	}
	gain := (cur.Median - old.Median) / old.Median // positive = better
	if d.Better == "lower" {
		gain = -gain
	}
	switch {
	case gain < -d.Bound:
		return "worse"
	case gain > d.Bound:
		return "better"
	}
	spread := max((old.Q3-old.Q1)/old.Median, (cur.Q3-cur.Q1)/cur.Median)
	if spread <= d.Bound {
		return "same"
	}
	if allBeat(d, old.Values, cur.Values) {
		return "better"
	}
	return "unresolved"
}

// allBeat reports whether every new value is better than every old one.
func allBeat(d metricDef, old, cur []float64) bool {
	if len(old) == 0 || len(cur) == 0 {
		return false
	}
	for _, n := range cur {
		for _, o := range old {
			if (d.Better == "lower" && n >= o) || (d.Better == "higher" && n <= o) {
				return false
			}
		}
	}
	return true
}
