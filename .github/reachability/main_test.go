package main

import (
	"reflect"
	"strings"
	"testing"
)

// fixtureReached is what the linker dumps of the fixture's one binary would
// list: main, and the config function it calls (withDefaults is reached
// too, but its writes to its own type do not count).
func fixtureReached(pkg, recv, name string) bool {
	switch pkg + "." + recv + "." + name {
	case "rlgraph/cmd/app..main", "rlgraph/internal/app..Run", "rlgraph/internal/app.AppConfig.withDefaults":
		return true
	}
	return false
}

func fixtureLinked(pkg string) bool {
	return pkg == "rlgraph/cmd/app" || pkg == "rlgraph/internal/app"
}

// keys returns the second column of the report lines (the key).
func keys(lines []string) []string {
	var out []string
	for _, l := range lines {
		out = append(out, strings.Fields(l)[1])
	}
	return out
}

func runFixture(t *testing.T, allow map[string]string) *fieldReport {
	t.Helper()
	r, err := checkFields("testdata/fixture", fixtureReached, fixtureLinked, allow)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFieldPassFlagsUnsetFieldsAndArms: the field set by the binary and the
// field named by shipped JSON pass; the field only withDefaults sets, the
// field only a test sets and the arm nothing names fail.
func TestFieldPassFlagsUnsetFieldsAndArms(t *testing.T) {
	r := runFixture(t, nil)
	if r.fields != 4 || r.arms != 2 {
		t.Fatalf("found %d fields and %d arms, want 4 and 2", r.fields, r.arms)
	}
	if got, want := keys(r.unset), []string{"app.AppConfig.DefaultsOnly", "app.AppConfig.TestOnly"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unset %v, want %v", got, want)
	}
	if got, want := keys(r.unnamed), []string{`app.Run="slow"`}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unnamed %v, want %v", got, want)
	}
	if len(r.stale) != 0 {
		t.Fatalf("stale %v with no allowlist", r.stale)
	}
}

// TestFieldPassAllowlist: allowlisted entries pass while their reasons hold,
// and a reason that no longer holds, or an entry for a field that passes
// anyway or does not exist, is stale.
func TestFieldPassAllowlist(t *testing.T) {
	r := runFixture(t, map[string]string{
		"app.AppConfig.DefaultsOnly": "pending item 4",
		"app.AppConfig.TestOnly":     "test seam: TestSeam",
		`app.Run="slow"`:             "pending item 19",
	})
	if len(r.unset)+len(r.unnamed)+len(r.stale) != 0 || len(r.allowed) != 3 {
		t.Fatalf("unset %v unnamed %v stale %v allowed %v", r.unset, r.unnamed, r.stale, r.allowed)
	}

	r = runFixture(t, map[string]string{
		"app.AppConfig.DefaultsOnly": "pending item 4",
		"app.AppConfig.TestOnly":     "test seam: TestOther",
		`app.Run="slow"`:             "pending item 19",
		"app.AppConfig.Mode":         "pending item 4",
		"app.AppConfig.Gone":         "pending item 4",
	})
	want := []string{"app.AppConfig.Gone", "app.AppConfig.Mode", "app.AppConfig.TestOnly"}
	if got := keys(r.stale); !reflect.DeepEqual(got, want) {
		t.Fatalf("stale %v, want %v", r.stale, want)
	}
}
