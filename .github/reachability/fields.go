package main

// The field pass: every exported field of an exported *Config, *Spec or
// *Options struct under internal/ must be written by code some binary
// reaches (a composite-literal key, an assignment, an increment or an
// address taken, outside the type's own withDefaults), or be the json tag of
// a key in configs/*.json or bench/workloads/*.json. Every string case arm of
// a switch whose tag carries such a field's value (through assignments,
// struct fields and call arguments) must be named by a string literal in
// reached code or by a string value in that JSON. The pass type-checks the
// module's packages from source with go/types and imports everything else
// from the export data go list -export leaves in the build cache.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// fieldReasons are the allowed justifications for keeping a config field or
// switch arm that no binary sets. "test seam: TestName" is allowed too: the
// named test must set the field.
var fieldReasons = map[string]bool{
	"frozen bench surface (item 1)": true,
	"pending item 4":                true,
	"pending item 19":               true,
}

const seamPrefix = "test seam: "

// srcPkg is one type-checked package of the module (or a test variant).
type srcPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks module packages from source and imports every other
// package from its export data.
type loader struct {
	fset    *token.FileSet
	dirs    map[string]string // module import path -> directory
	exports map[string]string // other import path -> export data file
	gc      types.Importer
	pkgs    map[string]*srcPkg
}

func newLoader(root string) (*loader, error) {
	l := &loader{fset: token.NewFileSet(), dirs: map[string]string{}, exports: map[string]string{}, pkgs: map[string]*srcPkg{}}
	var mods []string
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != root && skipDir(e.Name()) {
			return filepath.SkipDir
		}
		if e.Name() == "go.mod" {
			mods = append(mods, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range mods {
		cmd := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{.Export}}\t{{.Standard}}", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			f := strings.Split(line, "\t")
			if len(f) != 4 {
				continue
			}
			if f[3] == "false" && (f[0] == module || strings.HasPrefix(f[0], module+"/")) {
				l.dirs[f[0]] = f[1]
			} else if f[2] != "" {
				l.exports[f[0]] = f[2]
			}
		}
	}
	l.gc = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := l.exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	return l, nil
}

func skipDir(name string) bool {
	return strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata"
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.dirs[path]; !ok {
		return l.gc.Import(path)
	}
	p, err := l.load(path, false)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load type-checks the package at path: its non-test files, or with tests
// set its in-package test files too (a separate test variant; type errors in
// test variants are ignored).
func (l *loader) load(path string, tests bool) (*srcPkg, error) {
	key := path
	if tests {
		key += " [test]"
	}
	if p, ok := l.pkgs[key]; ok {
		return p, nil
	}
	dir := l.dirs[path]
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &srcPkg{path: path}
	ext := &srcPkg{path: path + "_test"}
	for _, e := range entries {
		name := e.Name()
		isTest := strings.HasSuffix(name, "_test.go")
		if e.IsDir() || !strings.HasSuffix(name, ".go") || isTest && !tests {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if isTest && strings.HasSuffix(f.Name.Name, "_test") {
			ext.files = append(ext.files, f)
		} else {
			p.files = append(p.files, f)
		}
	}
	l.pkgs[key] = p
	if err := l.check(p, tests); err != nil {
		return nil, err
	}
	if tests && len(ext.files) > 0 {
		l.pkgs[path+"_test [test]"] = ext
		_ = l.check(ext, true) // lenient: never fails
	}
	return p, nil
}

func (l *loader) check(p *srcPkg, lenient bool) error {
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", build.Default.GOARCH)}
	if lenient {
		conf.Error = func(error) {}
	}
	var err error
	p.types, err = conf.Check(p.path, l.fset, p.files, p.info)
	if lenient {
		return nil
	}
	return err
}

// configField is one exported field of a config struct.
type configField struct {
	key      string // package path under internal/, type name, field name
	owner    string // "importpath.Type"
	name     string
	jsonName string
	pos      string
}

// caseArm is one string case arm of a switch on a config value.
type caseArm struct {
	key string // enclosing function's key, then ="value"
	val string
	pos string
}

// fieldReport is the outcome of the field pass.
type fieldReport struct {
	fields, arms                   int
	unset, unnamed, stale, allowed []string
	unsetCount, unnamedCount       int
}

// fieldPass holds what the pass collects over the module's code.
type fieldPass struct {
	l          *loader
	root       string
	reached    func(pkg, recv, name string) bool
	linked     func(pkg string) bool
	fields     map[string]*configField // by owner+"."+name
	byObj      map[*types.Var]*configField
	set        map[string]bool            // fields written by reached code
	testSets   map[string]map[string]bool // test name -> fields it writes
	benchUses  map[string]bool            // fields bench/ code names
	named      map[string]bool            // string literals in reached code
	tainted    map[*types.Var]bool        // string vars carrying a config value
	jsonKeys   map[string]bool            // keys of the shipped JSON
	jsonValues map[string]bool            // string values of the shipped JSON
	arms       []caseArm
}

// checkFields runs the pass over the module at root. reached reports
// whether some binary reaches a function (recv is the receiver type name or
// ""); linked reports whether some binary links a package.
func checkFields(root string, reached func(pkg, recv, name string) bool, linked func(string) bool, allow map[string]string) (*fieldReport, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	if root, err = filepath.Abs(root); err != nil {
		return nil, err
	}
	fp := &fieldPass{
		l: l, root: root, reached: reached, linked: linked,
		fields: map[string]*configField{}, byObj: map[*types.Var]*configField{},
		set: map[string]bool{}, testSets: map[string]map[string]bool{}, benchUses: map[string]bool{},
		named: map[string]bool{}, tainted: map[*types.Var]bool{},
		jsonKeys: map[string]bool{}, jsonValues: map[string]bool{},
	}
	var paths []string
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var pkgs []*srcPkg
	for _, p := range paths {
		sp, err := l.load(p, false)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p, err)
		}
		pkgs = append(pkgs, sp)
	}
	for _, p := range pkgs {
		fp.collectFields(p)
	}
	if err := fp.readJSON(); err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		fp.collectWrites(p)
	}
	for _, p := range paths {
		if _, err := l.load(p, true); err != nil {
			return nil, fmt.Errorf("loading the tests of %s: %v", p, err)
		}
	}
	for key, p := range l.pkgs {
		if strings.HasSuffix(key, " [test]") {
			fp.collectTestWrites(p)
		}
	}
	fp.taint(pkgs)
	for _, p := range pkgs {
		fp.collectArms(p)
	}
	return fp.report(allow), nil
}

// collectFields records the exported fields of p's exported config structs.
func (fp *fieldPass) collectFields(p *srcPkg) {
	if !strings.HasPrefix(p.path, module+"/internal/") {
		return
	}
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Spec") || strings.HasSuffix(name, "Options")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		owner := p.path + "." + name
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			jsonName, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ",")
			if jsonName == "-" {
				jsonName = ""
			}
			cf := &configField{
				key:      strings.TrimPrefix(owner, module+"/internal/") + "." + f.Name(),
				owner:    owner,
				name:     f.Name(),
				jsonName: jsonName,
				pos:      fp.pos(f.Pos()),
			}
			fp.fields[owner+"."+f.Name()] = cf
			fp.byObj[f] = cf
			if isString(f.Type()) {
				fp.tainted[f] = true
			}
		}
	}
}

func (fp *fieldPass) pos(p token.Pos) string {
	pos := fp.l.fset.Position(p)
	if rel, err := filepath.Rel(fp.root, pos.Filename); err == nil {
		pos.Filename = rel
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line)
}

// readJSON collects the keys and string values of the shipped configs.
func (fp *fieldPass) readJSON() error {
	var files []string
	for _, pat := range []string{"configs/*.json", "bench/workloads/*.json"} {
		m, err := filepath.Glob(filepath.Join(fp.root, pat))
		if err != nil {
			return err
		}
		files = append(files, m...)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if !fp.walkJSON(data, fp.jsonValues) {
			return fmt.Errorf("%s: not a JSON document", f)
		}
	}
	return nil
}

// walkJSON adds the object keys of a JSON document to the shipped keys and
// its string values to values. A JSON literal in reached code (a config a
// binary decodes) counts like a shipped file. It reports whether data is
// JSON at all.
func (fp *fieldPass) walkJSON(data []byte, values map[string]bool) bool {
	var doc any
	if json.Unmarshal(data, &doc) != nil {
		return false
	}
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				fp.jsonKeys[k] = true
				walk(x)
			}
		case []any:
			for _, x := range v {
				walk(x)
			}
		case string:
			values[v] = true
		}
	}
	walk(doc)
	return true
}

// writes calls fn with every config field that node writes: composite
// literal keys (or positions), and the selector chains that are assigned,
// incremented or have their address taken. Writing x.A.B writes A too.
// Fields match by owner type and name, because a package's test variant
// type-checks its config types a second time.
func (fp *fieldPass) writes(info *types.Info, node ast.Node, fn func(*configField)) {
	field := func(owner types.Type, name string) {
		if cf := fp.fields[typeKey(owner)+"."+name]; cf != nil {
			fn(cf)
		}
	}
	lhs := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					t := sel.Recv()
					for _, i := range sel.Index()[:len(sel.Index())-1] {
						t = deref(t).Underlying().(*types.Struct).Field(i).Type()
					}
					field(t, sel.Obj().Name())
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				return true
			}
			st, ok := deref(t).Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range n.Elts {
				name := st.Field(i).Name()
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					name = kv.Key.(*ast.Ident).Name
				}
				field(t, name)
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				lhs(e)
			}
		case *ast.IncDecStmt:
			lhs(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				lhs(n.X)
			}
		}
		return true
	})
}

// deref strips one pointer.
func deref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// typeKey names a (pointer to a) named type "importpath.Name".
func typeKey(t types.Type) string {
	if n, ok := types.Unalias(deref(t)).(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path() + "." + n.Obj().Name()
	}
	return ""
}

// collectWrites records the fields reached code writes, the fields bench/
// code names, and the string literals reached code holds outside case lists.
func (fp *fieldPass) collectWrites(p *srcPkg) {
	bench := p.path == module+"/bench" || strings.HasPrefix(p.path, module+"/bench/")
	if bench {
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && fp.byObj[v.Origin()] != nil {
				fp.benchUses[fp.byObj[v.Origin()].owner+"."+id.Name] = true
			}
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			live, defaultsOf := fp.linked(p.path), ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				recv := recvName(fd)
				live = fp.reached(p.path, recv, fd.Name.Name)
				if fd.Name.Name == "withDefaults" {
					defaultsOf = p.path + "." + recv
				}
			}
			if !live {
				continue
			}
			fp.writes(p.info, d, func(cf *configField) {
				if cf.owner != defaultsOf {
					fp.set[cf.owner+"."+cf.name] = true
				}
			})
			cases := map[ast.Expr]bool{}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CaseClause:
					for _, e := range n.List {
						cases[e] = true
					}
				case *ast.BasicLit:
					if n.Kind == token.STRING && !cases[n] {
						if v := p.info.Types[n].Value; v != nil {
							fp.named[constant.StringVal(v)] = true
							fp.walkJSON([]byte(constant.StringVal(v)), fp.named)
						}
					}
				}
				return true
			})
		}
	}
}

// collectTestWrites records, per test function, the fields it writes.
func (fp *fieldPass) collectTestWrites(p *srcPkg) {
	for _, f := range p.files {
		if !strings.HasSuffix(fp.l.fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Test") {
				continue
			}
			fp.writes(p.info, fd, func(cf *configField) {
				if fp.testSets[fd.Name.Name] == nil {
					fp.testSets[fd.Name.Name] = map[string]bool{}
				}
				fp.testSets[fd.Name.Name][cf.owner+"."+cf.name] = true
			})
		}
	}
}

// taint marks, to a fixed point, every string variable that receives a
// config field's value: by assignment, by composite-literal key, or as the
// parameter a call passes it to.
func (fp *fieldPass) taint(pkgs []*srcPkg) {
	for changed := true; changed; {
		changed = false
		add := func(info *types.Info, e ast.Expr) {
			if v := varOf(info, e); v != nil && !fp.tainted[v] && isString(v.Type()) {
				fp.tainted[v] = true
				changed = true
			}
		}
		addVar := func(v *types.Var) {
			if v != nil && !fp.tainted[v.Origin()] && isString(v.Type()) {
				fp.tainted[v.Origin()] = true
				changed = true
			}
		}
		for _, p := range pkgs {
			info := p.info
			for _, f := range p.files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						if len(n.Lhs) == len(n.Rhs) {
							for i := range n.Rhs {
								if fp.carries(info, n.Rhs[i]) {
									add(info, n.Lhs[i])
								}
							}
						}
					case *ast.ValueSpec:
						if len(n.Names) == len(n.Values) {
							for i := range n.Values {
								if fp.carries(info, n.Values[i]) {
									add(info, n.Names[i])
								}
							}
						}
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok && fp.carries(info, n.Value) {
							if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
								addVar(v)
							}
						}
					case *ast.CallExpr:
						sig := callee(info, n)
						if sig == nil {
							return true
						}
						params := sig.Params()
						for i, arg := range n.Args {
							if params.Len() == 0 || !fp.carries(info, arg) {
								continue
							}
							j := i
							if j >= params.Len() {
								j = params.Len() - 1
							}
							addVar(params.At(j))
						}
					}
					return true
				})
			}
		}
	}
}

// carries reports whether e is a variable that holds a config value.
func (fp *fieldPass) carries(info *types.Info, e ast.Expr) bool {
	v := varOf(info, e)
	return v != nil && fp.tainted[v]
}

// varOf resolves an identifier or field selector to its variable.
func varOf(info *types.Info, e ast.Expr) *types.Var {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := info.ObjectOf(x).(*types.Var); ok {
			return v.Origin()
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			return sel.Obj().(*types.Var).Origin()
		}
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v.Origin()
		}
	}
	return nil
}

// callee returns the declared signature of a static call's function, or
// nil for conversions, builtins and calls of function values.
func callee(info *types.Info, call *ast.CallExpr) *types.Signature {
	fun := call.Fun
	for {
		p, ok := fun.(*ast.ParenExpr)
		if !ok {
			break
		}
		fun = p.X
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		if sel := info.Selections[f]; sel != nil {
			obj = sel.Obj()
		} else {
			obj = info.Uses[f.Sel]
		}
	case *ast.IndexExpr:
		if id, ok := f.X.(*ast.Ident); ok {
			obj = info.Uses[id]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin().Type().(*types.Signature)
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// collectArms records the string case arms of switches whose tag carries a
// config value.
func (fp *fieldPass) collectArms(p *srcPkg) {
	for _, f := range p.files {
		for _, d := range f.Decls {
			fn := "init"
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
				if r := recvName(fd); r != "" {
					fn = r + "." + fn
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil || !fp.carries(p.info, sw.Tag) {
					return true
				}
				for _, c := range sw.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						v := p.info.Types[e].Value
						if v == nil || v.Kind() != constant.String {
							continue
						}
						s := constant.StringVal(v)
						fp.arms = append(fp.arms, caseArm{
							key: fmt.Sprintf("%s.%s=%q", strings.TrimPrefix(p.path, module+"/internal/"), fn, s),
							val: s,
							pos: fp.pos(e.Pos()),
						})
					}
				}
				return true
			})
		}
	}
}

func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// report checks the fields and arms against the rule and the allowlist.
func (fp *fieldPass) report(allow map[string]string) *fieldReport {
	r := &fieldReport{fields: len(fp.fields), arms: len(fp.arms)}
	known := map[string]bool{}
	var keys []string
	for k := range fp.fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cf := fp.fields[k]
		known[cf.key] = true
		ok := fp.set[k] || cf.jsonName != "" && fp.jsonKeys[cf.jsonName]
		r.check(cf.key, cf.pos, ok, allow, func(reason string) string {
			return fp.checkReason(k, reason)
		})
	}
	sort.Slice(fp.arms, func(i, j int) bool { return fp.arms[i].key < fp.arms[j].key })
	for _, a := range fp.arms {
		known[a.key] = true
		ok := a.val == "" || fp.named[a.val] || fp.jsonValues[a.val]
		r.check(a.key, a.pos, ok, allow, func(reason string) string {
			if strings.HasPrefix(reason, seamPrefix) {
				return "a test seam must be a field"
			}
			return ""
		})
	}
	for key := range allow {
		if !known[key] {
			r.stale = append(r.stale, fmt.Sprintf("STALE     %s\tno such config field or switch arm: remove the allowlist entry", key))
		}
	}
	sort.Strings(r.stale)
	return r
}

// check files one field or arm: ok ones must not be allowlisted, the others
// must be, for a reason that still holds.
func (r *fieldReport) check(key, pos string, ok bool, allow map[string]string, why func(string) string) {
	reason, listed := allow[key]
	isField := !strings.Contains(key, "=")
	switch {
	case ok && listed:
		r.stale = append(r.stale, fmt.Sprintf("STALE     %s\tset by a binary or named: remove the allowlist entry", key))
	case ok:
	case listed:
		if problem := why(reason); problem != "" {
			r.stale = append(r.stale, fmt.Sprintf("STALE     %s\t%s: %s", key, reason, problem))
		}
		r.allowed = append(r.allowed, fmt.Sprintf("allowed   %s\t%s\t%s", key, pos, reason))
	case isField:
		r.unset = append(r.unset, fmt.Sprintf("UNSET     %s\t%s", key, pos))
	default:
		r.unnamed = append(r.unnamed, fmt.Sprintf("UNNAMED   %s\t%s", key, pos))
	}
	if !ok && isField {
		r.unsetCount++
	} else if !ok {
		r.unnamedCount++
	}
}

// checkReason verifies what an allowlisted field's reason claims, and
// returns what no longer holds ("" if it holds).
func (fp *fieldPass) checkReason(field, reason string) string {
	switch {
	case strings.HasPrefix(reason, seamPrefix):
		test := strings.TrimPrefix(reason, seamPrefix)
		if !fp.testSets[test][field] {
			return test + " does not set the field"
		}
	case reason == "frozen bench surface (item 1)":
		if !fp.benchUses[field] {
			return "bench/ does not name the field"
		}
	}
	return ""
}

// readFieldAllowlist parses "key reason..." lines; # starts a comment.
func readFieldAllowlist(path string) (map[string]string, error) {
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
		if !fieldReasons[reason] && !(strings.HasPrefix(reason, seamPrefix) && strings.HasPrefix(strings.TrimPrefix(reason, seamPrefix), "Test")) {
			return nil, fmt.Errorf("%s:%d: %s: reason %q is not one of frozen bench surface (item 1), pending item 4, pending item 19, test seam: TestName", path, i+1, key, reason)
		}
		out[key] = reason
	}
	return out, nil
}
