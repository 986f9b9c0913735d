// Package audit applies ROADMAP 5(e)'s rule ("a surface nothing reads is
// deleted") to every package under internal/, at two levels.
// TestEveryDeclarationHasACaller audits declarations: Go lets no code
// outside this module import an internal/ package, so a declaration there
// that only _test.go files reference is dead for every user.
// TestEverySettableValueIsUsed (settable_test.go) audits what a caller can
// set: struct fields and command-line flags. The package has no non-test
// files.
package audit

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const module = "hohtx"

// kept is the allowlist of both audits: declarations under internal/ that
// nothing but tests calls, fields that fail a settable-value rule and
// flags no user finds, each staying with its reason. A declaration's key is
// its name qualified by its package's path below internal/ (and by its
// receiver's type name, for a method); a field's is its struct type's name
// so qualified, then the field's; a flag's is "<command> -<name>".
var kept = map[string]string{
	"reclaim.RegisterScheme":     "the seam's one-place extension point; ROADMAP 2(b) builds Hyaline on it",
	"stm.Run":                    "test vocabulary: a one-shot transaction returning a value",
	"stm.Run2":                   "test vocabulary: Run with two results",
	"stm.Runtime.ResetStats":     "test vocabulary: zeroes the counters between a test's phases",
	"stm.Runtime.Profile":        "test vocabulary: what a runtime was built with",
	"stm.Tx.Serial":              "test vocabulary: whether an attempt runs under the serial lock",
	"list.HashTable.Buckets":     "test vocabulary: the bucket count the hash table's tests check",
	"list.HashTable.BucketSizes": "test vocabulary: the per-bucket spread the hash table's tests check",

	"reclaim.Config.ScanThreshold": "test vocabulary: makes the deferred schemes reclaim at the first retire",
	"arena.Config.MagazineSize":    "test vocabulary: a small magazine forces overflow to the shared pool",
	"arena.Stats.Fresh":            "test vocabulary: pins that overflowed slots are reused, not freshly bumped",
	"arena.Stats.PoolOps":          "test vocabulary: pins that magazine overflow reaches the shared pool",
	"core.Config.TableBits":        "test vocabulary: a small table forces bucket collisions",
	"core.Config.Assoc":            "test vocabulary: fewer arrays force set-associative collisions",
	"serve.ServerConfig.MaxBatch":  "test vocabulary: a small cap exercises MULTI's over-the-cap rejection",
	"serve.ServerConfig.MaxKey":    "benchmark/stack.go sets it; goes with ROADMAP 4(a)'s benchmark PR",
}

// TestEveryDeclarationHasACaller type-checks every package of the module
// (and of benchmark/, which imports internal/ packages too) from its
// non-test files, once, and fails on any top-level func, method, type or
// const in a non-test file under internal/ that no non-test code reaches.
// Reachability starts at everything outside internal/, every package-level
// var, main and init, the allowlist, and every method of a type package
// hohtx re-exports; a method is also reached when its receiver type is
// reached and satisfies a module or stdlib interface through it (promoted
// methods included). References made from inside an unreached declaration
// do not count, so a dead cluster is reported whole.
func TestEveryDeclarationHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and its stdlib imports from source")
	}
	l := loadRepo(t)
	a := newAudit(l)
	a.run()

	var dead []*decl
	for _, d := range a.decls {
		if !d.audited || a.reached[d.obj] {
			continue
		}
		if _, ok := kept[d.key]; ok {
			continue
		}
		dead = append(dead, d)
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].where < dead[j].where })
	lines := 0
	for _, d := range dead {
		lines += d.lines
		t.Errorf("%s: %s (%s, %d lines) has no caller outside _test.go files", d.where, d.key, d.kind, d.lines)
	}
	if len(dead) > 0 {
		t.Errorf("%d declarations, %d lines: delete each with the tests that check only it, or add it to kept with a reason", len(dead), lines)
	}

	// An allowlist entry must name a declaration that exists and that still
	// needs the entry. Entries for fields and flags are
	// TestEverySettableValueIsUsed's.
	declKept := 0
	for key := range kept {
		d := a.byKey[key]
		switch {
		case d == nil && (strings.Contains(key, " ") || fieldKey(l, key)):
			continue
		case d == nil:
			t.Errorf("kept names %s, which is not a declaration under internal/", key)
		case a.reachedWithoutKept[d.obj]:
			t.Errorf("kept names %s, which non-test code reaches: drop the entry", key)
		}
		declKept++
	}
	t.Logf("%d packages, %d audited declarations, %d kept", len(l.pkgs), a.audited, declKept)
}

var repo *loader

// loadRepo loads the repository once for both audits.
func loadRepo(t *testing.T) *loader {
	t.Helper()
	if repo == nil {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			t.Fatal(err)
		}
		l := newLoader(root)
		if err := l.loadAll(); err != nil {
			t.Fatal(err)
		}
		repo = l
	}
	return repo
}

// pkg is one type-checked module package: its non-test files only.
type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks module packages from source on demand and hands every
// other import path to the stdlib source importer, so each package is
// checked once and its objects are shared by every importer.
type loader struct {
	root string
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*pkg // nil while a package is being checked
}

func newLoader(root string) *loader {
	// Pure-Go stdlib: the source importer would otherwise run cgo.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &loader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*pkg{},
	}
}

// loadAll loads every directory of the repository that holds Go files,
// benchmark/ (a module of its own that imports this one) included.
func (l *loader) loadAll() error {
	var paths []string
	err := filepath.WalkDir(l.root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.IsDir() {
			return nil
		}
		name := e.Name()
		if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil || len(bp.GoFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, module)
		} else {
			paths = append(paths, module+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return err
		}
	}
	return nil
}

func isModule(path string) bool { return path == module || strings.HasPrefix(path, module+"/") }

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, l.root, 0) }

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if !isModule(path) {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, module), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{path: path, info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// decl is one package-level declaration (or method) of a module package.
type decl struct {
	obj     types.Object
	key     string // package below internal/, receiver type, name
	kind    string // func, method, type, const or var
	where   string // file:line, relative to the repository
	lines   int    // doc comment included
	audited bool   // in a non-test file under internal/
	refs    []types.Object
}

type audit struct {
	l     *loader
	decls map[types.Object]*decl
	byKey map[string]*decl
	// ifaces is every interface a method can be reached through: each named
	// interface of a module or stdlib package the module imports, error, and
	// every interface literal in module code.
	ifaces             []*types.Interface
	reached            map[types.Object]bool
	reachedWithoutKept map[types.Object]bool
	audited            int
}

func newAudit(l *loader) *audit {
	a := &audit{l: l, decls: map[types.Object]*decl{}, byKey: map[string]*decl{}}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			a.collect(p, f)
		}
	}
	a.collectIfaces()
	return a
}

// canon maps an object to the declaration it denotes: the generic origin of
// an instantiated function, nothing for locals, fields and imports.
func canon(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		o = o.Origin()
		method := o.Type().(*types.Signature).Recv() != nil
		if o.Pkg() != nil && isModule(o.Pkg().Path()) && (method || o.Parent() == o.Pkg().Scope()) {
			return o
		}
	case *types.TypeName, *types.Const, *types.Var:
		if o.Pkg() != nil && isModule(o.Pkg().Path()) && o.Parent() == o.Pkg().Scope() {
			return o
		}
	}
	return nil
}

func (a *audit) collect(p *pkg, f *ast.File) {
	file := a.l.fset.File(f.Pos()).Name()
	rel, _ := filepath.Rel(a.l.root, file)
	rel = filepath.ToSlash(rel)
	audited := strings.HasPrefix(rel, "internal/")
	qual := strings.TrimPrefix(strings.TrimPrefix(p.path, module+"/internal/"), module+"/")

	add := func(name *ast.Ident, kind string, doc *ast.CommentGroup, node ast.Node) {
		if name.Name == "_" { // an assertion like var _ I = (*T)(nil) calls nothing
			return
		}
		obj := p.info.Defs[name]
		if name.Name != "init" { // init is not in scope
			obj = canon(obj)
		}
		if obj == nil {
			return
		}
		start := node.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		d := &decl{
			obj:     obj,
			kind:    kind,
			where:   fmt.Sprintf("%s:%d", rel, a.l.fset.Position(node.Pos()).Line),
			lines:   a.l.fset.Position(node.End()).Line - a.l.fset.Position(start).Line + 1,
			audited: audited,
		}
		d.key = qual + "." + name.Name
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				d.key = qual + "." + recvName(recv.Type()) + "." + name.Name
			} else if name.Name == "main" || name.Name == "init" {
				d.audited = false
			}
		}
		if _, ok := obj.(*types.Var); ok {
			d.audited = false
		}
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if u := canon(p.info.Uses[id]); u != nil && u != obj {
					d.refs = append(d.refs, u)
				}
			}
			return true
		})
		if d.audited {
			a.audited++
		}
		a.decls[obj] = d
		a.byKey[d.key] = d
	}

	for _, dl := range f.Decls {
		switch dl := dl.(type) {
		case *ast.FuncDecl:
			kind := "func"
			if dl.Recv != nil {
				kind = "method"
			}
			add(dl.Name, kind, dl.Doc, dl)
		case *ast.GenDecl:
			for _, s := range dl.Specs {
				doc := dl.Doc
				if len(dl.Specs) > 1 {
					doc = nil
				}
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Doc != nil {
						doc = s.Doc
					}
					add(s.Name, "type", doc, s)
				case *ast.ValueSpec:
					if s.Doc != nil {
						doc = s.Doc
					}
					kind := "const"
					if dl.Tok == token.VAR {
						kind = "var"
					}
					for _, n := range s.Names {
						add(n, kind, doc, s)
					}
				}
			}
		}
	}
}

func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

func (a *audit) collectIfaces() {
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			a.ifaces = append(a.ifaces, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range a.l.pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				if _, ok := tv.Type.(*types.Interface); ok {
					add(tv.Type)
				}
			}
		}
	}
}

// run computes what non-test code reaches, first without the allowlist (to
// find stale entries) and then with it.
func (a *audit) run() {
	a.reachedWithoutKept = a.reach(false)
	a.reached = a.reach(true)
}

func (a *audit) reach(withKept bool) map[types.Object]bool {
	reached := map[types.Object]bool{}
	var queue []types.Object
	mark := func(o types.Object) {
		if o != nil && !reached[o] {
			reached[o] = true
			queue = append(queue, o)
		}
	}
	for obj, d := range a.decls {
		// Not audited: outside internal/, a var, main or init.
		if _, ok := kept[d.key]; !d.audited || ok && withKept {
			mark(obj)
		}
	}
	// Every method of a type package hohtx re-exports is its API.
	if root := a.l.pkgs[module]; root != nil {
		for _, name := range root.types.Scope().Names() {
			tn, ok := root.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				ms := types.NewMethodSet(types.NewPointer(n))
				for i := 0; i < ms.Len(); i++ {
					mark(canon(ms.At(i).Obj()))
				}
			}
		}
	}
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		if d := a.decls[o]; d != nil {
			for _, r := range d.refs {
				mark(r)
			}
		}
		// A reached type reaches each method through which it satisfies an
		// interface.
		tn, ok := o.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		n, ok := tn.Type().(*types.Named)
		if !ok || n.TypeParams().Len() > 0 || types.IsInterface(n) {
			continue
		}
		ptr := types.NewPointer(n)
		var ms *types.MethodSet
		for _, it := range a.ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			if ms == nil {
				ms = types.NewMethodSet(ptr)
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
					mark(canon(sel.Obj()))
				}
			}
		}
	}
	return reached
}
