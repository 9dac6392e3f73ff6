package benchkit

import (
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"runtime"
	"strings"
)

// BenchHeader identifies the machine and revision a benchmark report was
// produced on. rlgraph-bench prints it as the first line of its output and
// WriteJSON puts it at the top of every BENCH_*.json, so results from
// different commits or core counts are never compared blindly.
type BenchHeader struct {
	// Commit is the short git revision, with "-dirty" appended when the
	// working tree (result files aside) differs from it, or "unknown"
	// outside a checkout.
	Commit string `json:"commit"`
	// Gomaxprocs records the machine's usable CPUs.
	Gomaxprocs int `json:"gomaxprocs"`
	// GoVersion is the toolchain the binary was built with.
	GoVersion string `json:"go_version"`
}

// NewBenchHeader snapshots the current revision and machine shape.
func NewBenchHeader() BenchHeader {
	commit := "unknown"
	if out, err := osexec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		if s := strings.TrimSpace(string(out)); s != "" {
			commit = s
			// The run's own result files are not the code measured, and a
			// "> bench_figures.txt" redirect has already truncated its
			// target by now: leave them out, or no run could stamp clean.
			if st, err := osexec.Command("git", "status", "--porcelain", "--", ":/",
				":(top,exclude)bench_figures.txt", ":(top,exclude,glob)BENCH_*.json").Output(); err == nil && len(st) > 0 {
				commit += "-dirty"
			}
		}
	}
	return BenchHeader{
		Commit:     commit,
		Gomaxprocs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

func (h BenchHeader) String() string {
	return fmt.Sprintf("commit=%s gomaxprocs=%d go=%s", h.Commit, h.Gomaxprocs, h.GoVersion)
}

// Gate is one acceptance record: a measured value held against a threshold.
// A figure with gates fails its rlgraph-bench run when any of them does.
type Gate struct {
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Pass      bool    `json:"pass"`
	Note      string  `json:"note,omitempty"`
}

// FailedGates returns an error naming every gate that did not pass, or nil.
func FailedGates(gates []Gate) error {
	var failed []string
	for _, g := range gates {
		if !g.Pass {
			failed = append(failed, fmt.Sprintf("%s: %.3f vs %.3f", g.Name, g.Value, g.Threshold))
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("acceptance failed: %s", strings.Join(failed, "; "))
}

// WriteJSON writes a figure's report with its header and gates to path.
func WriteJSON(path string, header BenchHeader, report any, gates []Gate) error {
	buf, err := json.MarshalIndent(struct {
		Header     BenchHeader `json:"header"`
		Report     any         `json:"report"`
		Acceptance []Gate      `json:"acceptance"`
	}{header, report, gates}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
