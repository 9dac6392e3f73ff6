package main

// The size pass (-size): every package directory of the module outside
// bench/ and .github/ has a budget of non-test lines (the wc -l of its
// non-test .go files) in .github/size.txt. A package over its budget fails,
// and so does one more than sizeSlack lines under it, so the change that
// deletes code lowers the budget. With -size-base (the budget file before
// the change) a raised budget fails unless its line gives a reason.

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// sizeSlack is how far under its budget a package may shrink before the
// budget has to come down.
const sizeSlack = 20

// budget is one line of the budget file.
type budget struct {
	lines  int
	reason string
}

// readBudgets parses "dir lines [reason]" lines; # starts a comment.
func readBudgets(path string) (map[string]budget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]budget{}
	for i, line := range strings.Split(string(data), "\n") {
		line, _, _ = strings.Cut(line, "#")
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		var n int
		if len(f) >= 2 {
			n, err = strconv.Atoi(f[1])
		}
		if len(f) < 2 || err != nil {
			return nil, fmt.Errorf("%s:%d: want \"dir lines [reason]\", got %q", path, i+1, strings.TrimSpace(line))
		}
		out[f[0]] = budget{lines: n, reason: strings.Join(f[2:], " ")}
	}
	return out, nil
}

// packageSizes counts the lines of the non-test .go files of every
// directory under root, keyed by slash path ("." for root), skipping
// bench/, dot directories and testdata.
func packageSizes(root string) (map[string]int, error) {
	out := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (rel == "bench" || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[pathDir(rel)] += bytes.Count(data, []byte("\n"))
		return nil
	})
	return out, err
}

func pathDir(rel string) string {
	if i := strings.LastIndex(rel, "/"); i >= 0 {
		return rel[:i]
	}
	return "."
}

// checkSizes returns one failure line per package off its budget, per
// budget without a package, and per raise over base without a reason.
func checkSizes(sizes map[string]int, budgets, base map[string]budget) []string {
	var bad []string
	for dir, n := range sizes {
		b, ok := budgets[dir]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("UNBUDGETED %s\t%d lines: add \"%s %d\"", dir, n, dir, n))
		case n > b.lines:
			bad = append(bad, fmt.Sprintf("OVER       %s\t%d lines, budget %d", dir, n, b.lines))
		case n < b.lines-sizeSlack:
			bad = append(bad, fmt.Sprintf("UNDER      %s\t%d lines, budget %d: lower it to %d", dir, n, b.lines, n))
		}
	}
	for dir, b := range budgets {
		if _, ok := sizes[dir]; !ok {
			bad = append(bad, fmt.Sprintf("STALE      %s\tno such package: remove the budget", dir))
		}
		if was, ok := base[dir]; ok && b.lines > was.lines && b.reason == "" {
			bad = append(bad, fmt.Sprintf("RAISED     %s\tbudget %d > %d without a reason on its line", dir, b.lines, was.lines))
		}
	}
	sort.Strings(bad)
	return bad
}

// runSizes is the size pass over the module at root; it prints the
// failures and a summary and returns the failure count.
func runSizes(root, budgetFile, baseFile string) (int, error) {
	budgets, err := readBudgets(budgetFile)
	if err != nil {
		return 0, err
	}
	base := map[string]budget{}
	if baseFile != "" {
		if base, err = readBudgets(baseFile); err != nil {
			return 0, err
		}
	}
	sizes, err := packageSizes(root)
	if err != nil {
		return 0, err
	}
	bad := checkSizes(sizes, budgets, base)
	total := 0
	for _, n := range sizes {
		total += n
	}
	for _, line := range bad {
		fmt.Println(line)
	}
	fmt.Printf("%d packages, %d non-test lines outside bench/ and .github/, %d off budget\n",
		len(sizes), total, len(bad))
	return len(bad), nil
}
