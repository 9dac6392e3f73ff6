package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSizePassCountsNonTestLines: the fixture's three packages are counted
// by their non-test lines; test files, testdata, bench/ and dot directories
// are not.
func TestSizePassCountsNonTestLines(t *testing.T) {
	got, err := packageSizes("testdata/size")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int{".": 2, "a": 5, "b": 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sizes %v, want %v", got, want)
	}
}

// kinds returns the verdict and the package of each failure line.
func kinds(lines []string) []string {
	var out []string
	for _, l := range lines {
		out = append(out, strings.Fields(l)[0]+" "+strings.Fields(l)[1])
	}
	return out
}

// TestSizePassTwoSided: budgets equal to the sizes pass, and so does a
// package 20 lines under its budget; a package over its budget, one more
// than 20 lines under it, one without a budget and a budget without a
// package fail.
func TestSizePassTwoSided(t *testing.T) {
	sizes := map[string]int{".": 2, "a": 5, "b": 30}
	if bad := checkSizes(sizes, map[string]budget{".": {lines: 2}, "a": {lines: 5}, "b": {lines: 50}}, nil); len(bad) != 0 {
		t.Fatalf("in-budget tree failed: %v", bad)
	}
	bad := checkSizes(sizes, map[string]budget{"a": {lines: 4}, "b": {lines: 51}, "gone": {lines: 1}}, nil)
	want := []string{"OVER a", "STALE gone", "UNBUDGETED .", "UNDER b"}
	if got := kinds(bad); !reflect.DeepEqual(got, want) {
		t.Fatalf("failures %v, want %v", got, want)
	}
}

// TestSizePassRaiseNeedsReason: a budget above the one before the change
// fails without a reason on its line; with one, or when it stayed or went
// down, it passes.
func TestSizePassRaiseNeedsReason(t *testing.T) {
	sizes := map[string]int{"a": 5, "b": 30}
	base := map[string]budget{"a": {lines: 4}, "b": {lines: 35}}
	bad := checkSizes(sizes, map[string]budget{"a": {lines: 5}, "b": {lines: 30}}, base)
	if got, want := kinds(bad), []string{"RAISED a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("failures %v, want %v", got, want)
	}
	reasoned := map[string]budget{"a": {lines: 5, reason: "prefetch operator, 10 apex_dist pairs"}, "b": {lines: 30}}
	if bad := checkSizes(sizes, reasoned, base); len(bad) != 0 {
		t.Fatalf("reasoned raise failed: %v", bad)
	}
}

// TestSizePassReadsBudgets: a line is "dir lines [reason]", # starts a
// comment, and a line without a count is an error.
func TestSizePassReadsBudgets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "size.txt")
	data := "# budgets\n. 2\ninternal/a 5  raised for the prefetch # note\n\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readBudgets(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]budget{".": {lines: 2}, "internal/a": {lines: 5, reason: "raised for the prefetch"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("budgets %v, want %v", got, want)
	}
	for _, bad := range []string{"internal/a\n", "internal/a many\n"} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readBudgets(path); err == nil {
			t.Fatalf("%q parsed without an error", bad)
		}
	}
}
