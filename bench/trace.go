package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// kind names one layer boundary the benchmark times from outside. The name
// is "<module>.<call>", so the module prefix is the layer.
type kind uint8

const (
	kCycle kind = iota
	kEnvStates
	kEnvStep
	kAct
	kAssemble
	kObserve
	kUpdate
	kSample
	kRequest
	kRunner
	numKinds
)

var kindNames = [numKinds]string{
	kCycle:     "driver.cycle",
	kEnvStates: "envs.states",
	kEnvStep:   "envs.step_all",
	kAct:       "agents.get_actions",
	kAssemble:  "driver.assemble",
	kObserve:   "agents.observe",
	kUpdate:    "agents.update",
	kSample:    "execution.sample",
	kRequest:   "fleet.act_version",
	kRunner:    "exec.runner",
}

// maxSpans bounds the span file. Totals per kind keep counting past it, so
// the per-layer shares never depend on how many spans were kept.
const maxSpans = 100_000

// span is one timed call. Parent is the index of the span that caused it
// (-1 for a root); Op is the cycle, task, request or batch it belongs to.
// It holds no pointers, so the collector never scans the span slice.
type span struct {
	Kind   kind
	Parent int32
	Start  int64
	End    int64
	Op     int64
}

func (s span) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"op":%d}`,
		kindNames[s.Kind], s.Start, s.End, s.Parent, s.Op)), nil
}

// tracer collects spans in a pre-sized slice and totals per kind. It is
// used from one goroutine at a time; concurrent sources (request callers,
// replica batchers) record into their own arrays and are merged afterwards
// with add. A nil *tracer is the untraced pass: every method is a no-op that
// does not read the clock.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int64
	totalNs [numKinds]int64
	count   [numKinds]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

// now is nanoseconds since the tracer started (0 when untraced).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// add records a finished span and returns its index, or -1 if it was only
// counted.
func (t *tracer) add(k kind, start, end int64, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	t.totalNs[k] += end - start
	t.count[k]++
	if len(t.spans) == maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Kind: k, Start: start, End: end, Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

// begin opens a parent span so that children can name it; end closes it.
func (t *tracer) begin(k kind, op int64) (idx int32, start int64) {
	if t == nil {
		return -1, 0
	}
	start = t.now()
	return t.add(k, start, start, -1, op), start
}

func (t *tracer) end(k kind, idx int32, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.totalNs[k] += end - start
	if idx >= 0 {
		t.spans[idx].End = end
	}
}

// lap records the span [start, now] and returns now, the start of the next
// sibling.
func (t *tracer) lap(k kind, start int64, parent int32, op int64) int64 {
	if t == nil {
		return 0
	}
	end := t.now()
	t.add(k, start, end, parent, op)
	return end
}

// seconds is the total time spent inside spans of kind k.
func (t *tracer) seconds(k kind) float64 { return float64(t.totalNs[k]) / 1e9 }

// usPerCall is the mean duration of a span of kind k in microseconds.
func (t *tracer) usPerCall(k kind) float64 {
	return ratio(float64(t.totalNs[k])/1e3, float64(t.count[k]))
}

// write stores the spans as bench/out/trace_<workload>.json.
func (t *tracer) write(dir, workload string, hdr header) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace_"+workload+".json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	werr := json.NewEncoder(w).Encode(struct {
		Header   header `json:"header"`
		Workload string `json:"workload"`
		Dropped  int64  `json:"spans_dropped"`
		Spans    []span `json:"spans"`
	}{hdr, workload, t.dropped, t.spans})
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing trace for %s: %w", workload, werr)
	}
	return nil
}
