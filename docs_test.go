package rlgraph

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestDocsNameOnlyWhatExists fails when a document that describes the tree
// names a package path that is gone, a BENCH file that is not in the root, or
// a -fig value cmd/rlgraph-bench does not accept — so a deletion cannot leave
// the docs behind — and, the other way round, when a BENCH_*.json in the
// root is written by no figure any more.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	main, err := os.ReadFile("cmd/rlgraph-bench/main.go")
	if err != nil {
		t.Fatal(err)
	}
	figs := map[string]bool{"all": true}
	for _, m := range regexp.MustCompile(`\{"(\w+)", \w+\}`).FindAllSubmatch(main, -1) {
		figs[string(m[1])] = true
	}
	if len(figs) < 10 {
		t.Fatalf("%d -fig values found in cmd/rlgraph-bench/main.go, want the nine figures and all (figures table moved?)", len(figs))
	}

	writers, _ := filepath.Glob("internal/benchkit/*.go")
	src := main
	for _, f := range writers {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src = append(src, b...)
	}
	results, _ := filepath.Glob("BENCH_*.json")
	for _, r := range results {
		if !bytes.Contains(src, []byte(r)) {
			t.Errorf("%s is named by neither cmd/rlgraph-bench nor internal/benchkit: an orphaned result file", r)
		}
	}

	files := regexp.MustCompile(`\b(?:internal|cmd|examples)/[\w./-]*\w|\bBENCH_\w+\.json`)
	fig := regexp.MustCompile(`-fig[ =](\w+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range files.FindAllString(string(text), -1) {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, p)
			}
		}
		for _, m := range fig.FindAllStringSubmatch(string(text), -1) {
			if !figs[m[1]] {
				t.Errorf("%s names -fig %s, which cmd/rlgraph-bench does not accept", doc, m[1])
			}
		}
	}
}
