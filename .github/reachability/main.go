// Command reachability lists the non-test functions under internal/ that no
// binary of the module reaches, and checks them against an allowlist. With
// -fields it also runs the field pass (fields.go): the config fields and
// switch arms no binary sets, checked against their own allowlist. With
// -size it also runs the size pass (size.go): every package's non-test
// lines against its budget.
//
// It reads the linker's dependency dumps (go build -gcflags=all=-l
// -ldflags=-dumpdep) of every main package, which reachability.sh produces.
// A function is reached when its symbol appears in some dump. A method of a
// type that is live in some binary is also reached when it implements a
// method of a module interface that some binary dispatches: the interface
// is type-asserted (a marker method such as ValueSemantics is checked for
// and never called, so the linker keeps only its method table entry), or
// another live implementation of that method is reached. The linker keeps
// such a method only in a binary that both converts its type to the
// interface and calls the method through it.
//
// Usage:
//
//	go run ./.github/reachability [-list] -allow allowlist.txt [-fields fields.txt] [-size size.txt [-size-base old.txt]] dump...
//
// It exits 1 when an unreached function (or unset field, or unnamed arm) is
// not on its allowlist, or when an allowlist entry names one that is
// reached (set, named) or no longer exists.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const module = "rlgraph"

// reasons are the allowed justifications for keeping an unreached function.
var reasons = map[string]bool{
	"oracle":           true,
	"pending item 7":   true,
	"pending item 14":  true,
	"test entry point": true,
}

// funcDecl is one non-test function declaration.
type funcDecl struct {
	key      string // package path under internal/, then the symbol name
	recvType string // receiver type name, "" for functions
	pkg      string // full import path
	name     string
	pos      string
	lines    int
}

func main() {
	allowFile := flag.String("allow", "", "allowlist file")
	fieldsFile := flag.String("fields", "", "config field and switch arm allowlist file; runs the field pass")
	list := flag.Bool("list", false, "print every unreached function, allowlisted or not")
	sizeFile := flag.String("size", "", "package size budget file; runs the size pass")
	sizeBase := flag.String("size-base", "", "the budget file before the change: a raise over it needs a reason")
	flag.Parse()

	reached, liveTypes := readDumps(flag.Args())
	decls, methods, ifaces, asserted := parseModule(".")

	allow := map[string]string{}
	if *allowFile != "" {
		var err error
		if allow, err = readAllowlist(*allowFile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	var unreached []funcDecl
	declared, isUnreached := map[string]bool{}, map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if !isReached(d, reached, liveTypes, methods, ifaces, asserted) {
			unreached = append(unreached, d)
			isUnreached[d.key] = true
		}
	}
	sort.Slice(unreached, func(i, j int) bool { return unreached[i].key < unreached[j].key })

	bad := 0
	lines, allowed := 0, 0
	for _, d := range unreached {
		lines += d.lines
		reason, ok := allow[d.key]
		if ok {
			allowed++
		} else {
			bad++
			fmt.Printf("UNREACHED %s\t%s\t%d lines\n", d.key, d.pos, d.lines)
		}
		if *list && ok {
			fmt.Printf("allowed   %s\t%s\t%d lines\t%s\n", d.key, d.pos, d.lines, reason)
		}
	}
	for key := range allow {
		switch {
		case !declared[key]:
			bad++
			fmt.Printf("STALE     %s\tno such function: remove the allowlist entry\n", key)
		case !isUnreached[key]:
			bad++
			fmt.Printf("STALE     %s\treached by a binary: remove the allowlist entry\n", key)
		}
	}
	fmt.Printf("%d functions, %d unreached (%d lines), %d of them allowlisted\n",
		len(decls), len(unreached), lines, allowed)

	if *fieldsFile != "" {
		fieldAllow, err := readFieldAllowlist(*fieldsFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		reachedFunc := func(pkg, recv, name string) bool {
			return isReached(funcDecl{pkg: pkg, recvType: recv, name: name}, reached, liveTypes, methods, ifaces, asserted)
		}
		r, err := checkFields(".", reachedFunc, linkedPackages(reached), fieldAllow)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, group := range [][]string{r.unset, r.unnamed, r.stale} {
			for _, line := range group {
				fmt.Println(line)
				bad++
			}
		}
		if *list {
			for _, line := range r.allowed {
				fmt.Println(line)
			}
		}
		fmt.Printf("%d config fields, %d unset, %d switch arms, %d unnamed, %d of them allowlisted\n",
			r.fields, r.unsetCount, r.arms, r.unnamedCount, len(r.allowed))
	}
	if *sizeFile != "" {
		n, err := runSizes(".", *sizeFile, *sizeBase)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		bad += n
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// linkedPackages returns a test for whether some binary links a package:
// some reached symbol belongs to it.
func linkedPackages(reached map[string]bool) func(string) bool {
	pkgs := map[string]bool{}
	for s := range reached {
		slash := strings.LastIndex(s, "/")
		if dot := strings.Index(s[slash+1:], "."); dot >= 0 {
			pkgs[s[:slash+1+dot]] = true
		}
	}
	return func(pkg string) bool { return pkgs[pkg] }
}

// readDumps collects the reached rlgraph symbols (generic instantiation
// brackets removed) and the live rlgraph type names from linker dumps. A dump
// that starts with "# main importpath" has its main package's symbols
// renamed from main. to that import path.
func readDumps(files []string) (reached, liveTypes map[string]bool) {
	reached, liveTypes = map[string]bool{}, map[string]bool{}
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		mainPkg := "main"
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			if p, ok := strings.CutPrefix(sc.Text(), "# main "); ok {
				mainPkg = p
				continue
			}
			_, to, ok := strings.Cut(sc.Text(), " -> ")
			if !ok {
				continue
			}
			to, _, _ = strings.Cut(to, " ")
			if rest, ok := strings.CutPrefix(to, "main."); ok {
				to = mainPkg + "." + rest
			} else if rest, ok := strings.CutPrefix(to, "type:*main."); ok {
				to = "type:*" + mainPkg + "." + rest
			} else if rest, ok := strings.CutPrefix(to, "type:main."); ok {
				to = "type:" + mainPkg + "." + rest
			}
			if t, ok := strings.CutPrefix(to, "type:"); ok {
				t = strings.TrimPrefix(t, "*")
				if strings.HasPrefix(t, module+"/") {
					liveTypes[stripBrackets(t)] = true
				}
				continue
			}
			if strings.HasPrefix(to, module+"/") {
				reached[stripBrackets(to)] = true
			}
		}
		fh.Close()
		if err := sc.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	return reached, liveTypes
}

// stripBrackets removes generic instantiation lists: F[go.shape.int] -> F.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// parseModule parses every non-test Go file the default build context
// selects. It returns the function declarations under internal/, each
// type's method names (declared and promoted), each interface's method
// names, and the interfaces that some type assertion or type switch names.
func parseModule(root string) (decls []funcDecl, methods, ifaces map[string][]string, asserted map[string]bool) {
	methods, ifaces, asserted = map[string][]string{}, map[string][]string{}, map[string]bool{}
	embeds := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path)) // bench/ is module rlgraph/bench
		pkg := module
		if dir != "." {
			pkg = module + "/" + dir
		}
		collect(fset, f, pkg, &decls, methods, embeds, ifaces, asserted)
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return decls, methodSets(methods, embeds), ifaces, asserted
}

// methodSets adds the methods promoted from embedded types to each type's
// declared methods.
func methodSets(declared, embeds map[string][]string) map[string][]string {
	out := map[string][]string{}
	var set func(typ string, depth int) []string
	set = func(typ string, depth int) []string {
		ms := append([]string(nil), declared[typ]...)
		if depth < 8 {
			for _, e := range embeds[typ] {
				ms = append(ms, set(e, depth+1)...)
			}
		}
		return ms
	}
	for typ := range declared {
		out[typ] = set(typ, 0)
	}
	for typ := range embeds {
		out[typ] = set(typ, 0)
	}
	return out
}

func collect(fset *token.FileSet, f *ast.File, pkg string, decls *[]funcDecl,
	methods, embeds, ifaces map[string][]string, asserted map[string]bool) {
	imports := map[string]string{}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		n := p[strings.LastIndex(p, "/")+1:]
		if im.Name != nil {
			n = im.Name.Name
		}
		imports[n] = p
	}
	// typeKey resolves a type expression to "importpath.Name".
	typeKey := func(x ast.Expr) string {
		switch x := x.(type) {
		case *ast.Ident:
			return pkg + "." + x.Name
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
				return imports[id.Name] + "." + x.Sel.Name
			}
		}
		return ""
	}
	internal := strings.HasPrefix(pkg, module+"/internal/")
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			sym := d.Name.Name
			recv := recvName(d)
			if recv != "" {
				methods[pkg+"."+recv] = append(methods[pkg+"."+recv], d.Name.Name)
				if _, star := d.Recv.List[0].Type.(*ast.StarExpr); star {
					sym = "(*" + recv + ")." + sym
				} else {
					sym = recv + "." + sym
				}
			}
			if !internal {
				continue
			}
			start := d.Pos()
			if d.Doc != nil {
				start = d.Doc.Pos()
			}
			*decls = append(*decls, funcDecl{
				key:      strings.TrimPrefix(pkg, module+"/internal/") + "." + sym,
				recvType: recv,
				pkg:      pkg,
				name:     d.Name.Name,
				pos:      fmt.Sprintf("%s:%d", fset.Position(d.Pos()).Filename, fset.Position(d.Pos()).Line),
				lines:    fset.Position(d.End()).Line - fset.Position(start).Line + 1,
			})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, f := range st.Fields.List {
						if len(f.Names) == 0 {
							t := f.Type
							if s, ok := t.(*ast.StarExpr); ok {
								t = s.X
							}
							if k := typeKey(t); k != "" {
								embeds[pkg+"."+ts.Name.Name] = append(embeds[pkg+"."+ts.Name.Name], k)
							}
						}
					}
				}
				it, ok := ts.Type.(*ast.InterfaceType)
				if !ok {
					continue
				}
				var names []string
				for _, m := range it.Methods.List {
					for _, n := range m.Names {
						names = append(names, n.Name)
					}
				}
				ifaces[pkg+"."+ts.Name.Name] = names
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				asserted[typeKey(n.Type)] = true
			}
		case *ast.TypeSwitchStmt:
			for _, c := range n.Body.List {
				for _, x := range c.(*ast.CaseClause).List {
					asserted[typeKey(x)] = true
				}
			}
		}
		return true
	})
}

// isReached reports whether a binary reaches d: directly, or as a method of
// a live type that implements a module interface I when some binary
// dispatches that method through I. Dispatch is evident when I is
// type-asserted (marker methods are checked for, never called) or when
// another live implementation's method of the same name is reached.
func isReached(d funcDecl, reached, liveTypes map[string]bool, methods, ifaces map[string][]string, asserted map[string]bool) bool {
	if d.recvType == "" {
		if d.name == "init" {
			for s := range reached {
				if strings.HasPrefix(s, d.pkg+".init") {
					return true
				}
			}
			return false
		}
		return reached[d.pkg+"."+d.name]
	}
	typ := d.pkg + "." + d.recvType
	if methodReached(typ, d.name, reached) {
		return true
	}
	if !liveTypes[typ] {
		return false
	}
	for key, ms := range ifaces {
		if !contains(ms, d.name) || !implements(methods[typ], ms) {
			continue
		}
		if asserted[key] {
			return true
		}
		for other, oms := range methods {
			if other != typ && liveTypes[other] && implements(oms, ms) && methodReached(other, d.name, reached) {
				return true
			}
		}
	}
	return false
}

// methodReached reports whether method name of type typ ("importpath.T")
// appears in a dump, with a pointer or a value receiver.
func methodReached(typ, name string, reached map[string]bool) bool {
	dot := strings.LastIndex(typ, ".")
	return reached[typ[:dot]+".(*"+typ[dot+1:]+")."+name] || reached[typ+"."+name]
}

// implements reports whether a type declaring methods has every method of
// an interface (by name).
func implements(methods, iface []string) bool {
	for _, m := range iface {
		if !contains(methods, m) {
			return false
		}
	}
	return true
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// readAllowlist parses "key reason..." lines; # starts a comment.
func readAllowlist(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line, _, _ = strings.Cut(line, "#")
		key, reason, _ := strings.Cut(strings.TrimSpace(line), " ")
		if key == "" {
			continue
		}
		reason = strings.TrimSpace(reason)
		if !reasons[reason] {
			return nil, fmt.Errorf("%s:%d: %s: reason %q is not one of oracle, pending item 7, pending item 14, test entry point", path, i+1, key, reason)
		}
		out[key] = reason
	}
	return out, nil
}
