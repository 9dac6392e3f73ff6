package rlgraph

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyWhatExists fails when a document that describes the tree
// names a package path that is gone, a BENCH file that is not in the root, a
// -fig value cmd/rlgraph-bench does not accept, or (README.md and DESIGN.md)
// a backticked `pkg.Name` or `pkg.Type.Member` of an internal/ package that
// no declaration provides — so a deletion cannot leave the docs behind — and,
// the other way round, when a BENCH_*.json in the root is written by no
// figure any more.
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

	decls := internalDecls(t)
	ref := regexp.MustCompile(`(?:^|[^\w/.])([a-z]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	code := regexp.MustCompile("`[^`\n]+`")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range code.FindAllString(string(text), -1) {
			for _, m := range ref.FindAllStringSubmatch(span, -1) {
				names, ok := decls[m[1]]
				if !ok || fileSuffix[m[2]] || metricName.MatchString(m[2]) {
					continue
				}
				switch {
				case !names[m[2]]:
					t.Errorf("%s names %s.%s, which internal/ does not declare", doc, m[1], m[2])
				case m[3] != "" && !names[m[2]+"."+m[3]] && !fileSuffix[m[3]]:
					t.Errorf("%s names %s.%s.%s, which internal/ does not declare", doc, m[1], m[2], m[3])
				}
			}
		}
	}
}

// metricName matches the snake_case layer-metric names the regression
// benchmark reports under a package prefix (`graph.arena_hit_rate`).
var metricName = regexp.MustCompile(`^[a-z0-9]+(_[a-z0-9]+)+$`)

// fileSuffix lists extensions that make pkg.x a file name, not a symbol.
var fileSuffix = map[string]bool{"go": true, "s": true, "md": true, "json": true, "sh": true, "yml": true}

// internalDecls maps each internal/ package name to the names its non-test
// files declare: top-level identifiers, and Type.Method and Type.Field
// (interface methods included).
func internalDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	out := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := out[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			out[f.Name.Name] = names
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
					continue
				}
				typ := d.Recv.List[0].Type
				if s, ok := typ.(*ast.StarExpr); ok {
					typ = s.X
				}
				if ix, ok := typ.(*ast.IndexExpr); ok {
					typ = ix.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					names[id.Name+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						var members []*ast.Field
						switch ty := spec.Type.(type) {
						case *ast.StructType:
							members = ty.Fields.List
						case *ast.InterfaceType:
							members = ty.Methods.List
						}
						for _, fld := range members {
							for _, n := range fld.Names {
								names[spec.Name.Name+"."+n.Name] = true
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
