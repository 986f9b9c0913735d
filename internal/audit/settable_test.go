package audit

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEverySettableValueIsUsed is the audit's second level: what a caller
// can set. It fails on a struct field declared under internal/ that no
// non-test code reads, that no non-test code gives a value, or (for an
// exported field of a *Config, Profile or *Spec struct) that every non-test
// setter gives the same constant; on a flag registered under cmd/ that no
// document, script or printed line names; and on a -name= token in a
// torture repro line that cmd/torture does not register. DESIGN.md states
// the rules; settable below applies them.
func TestEverySettableValueIsUsed(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and its stdlib imports from source")
	}
	l := loadRepo(t)
	r := settable(l, kept)
	for _, f := range r.findings {
		t.Error(f)
	}
	if len(r.findings) > 0 {
		t.Errorf("%d findings: delete each value with the tests that check only it, or add it to kept with a reason", len(r.findings))
	}
	for _, s := range r.stale {
		t.Error(s)
	}
	t.Logf("%d fields (%d exported on *Config/Profile/*Spec), %d flags", r.fields, r.knobs, r.flags)
}

// fixture is a repository in miniature. It plants one value of each kind
// the settable audit must catch, and one repro-line flag torture does not
// register.
var fixture = map[string]string{
	"README.md": "The one flag this document names is torture -quiet.\n",
	"internal/knob/knob.go": `package knob

// Config: every field but Size fails one rule.
type Config struct {
	Size   int // set from a flag and read: passes
	Unread int // set, never read
	Unset  int // read, never set
	Copied int // set only by a copy of Unset
	Fixed  int // set, but always to 4
}

func New(c Config) int {
	if c.Fixed == 0 {
		c.Fixed = 4 // a defaulting assignment: not a setter
	}
	return c.Size + c.Unset + c.Copied + c.Fixed
}
`,
	"cmd/torture/main.go": `package main

import (
	"flag"
	"fmt"

	"hohtx/internal/knob"
)

func main() {
	size := flag.Int("size", 1, "the knob's size")
	quiet := flag.Bool("quiet", false, "print nothing")
	stale := flag.Bool("stale", false, "does nothing")
	flag.Parse()
	c := knob.Config{Size: *size, Unread: *size, Fixed: 4}
	c.Copied = c.Unset
	if !*quiet && !*stale {
		fmt.Println(knob.New(c))
		fmt.Printf("replay: torture -size=%d -gone=%d\n", *size, 0)
	}
}
`,
}

// TestSettableAuditHasTeeth runs the rules over the fixture and checks that
// exactly its plants are reported, and that stale allowlist entries fail.
func TestSettableAuditHasTeeth(t *testing.T) {
	root := t.TempDir()
	for name, src := range fixture {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l := newLoader(root)
	if err := l.loadAll(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"cmd/torture/main.go:13: torture -stale: named in no document, script or printed line",
		"cmd/torture/main.go:19: literal names -gone=, which cmd/torture does not register",
		"internal/knob/knob.go:6: knob.Config.Unread: never read",
		"internal/knob/knob.go:7: knob.Config.Unset: never set",
		"internal/knob/knob.go:8: knob.Config.Copied: never set",
		"internal/knob/knob.go:9: knob.Config.Fixed: every setter gives it 4",
	}
	r := settable(l, nil)
	if !reflect.DeepEqual(r.findings, want) {
		t.Errorf("findings:\n got %q\nwant %q", r.findings, want)
	}

	// An entry silences its finding; one that names nothing, or a value
	// that passes without it, is stale.
	r = settable(l, map[string]string{
		"knob.Config.Unread": "silenced",
		"knob.Config.Size":   "passes without the entry",
		"knob.Config.Gone":   "names no field",
		"torture -quiet":     "named in README.md",
	})
	if len(r.findings) != len(want)-1 {
		t.Errorf("with Unread kept, %d findings, want %d: %q", len(r.findings), len(want)-1, r.findings)
	}
	wantStale := []string{
		"kept names knob.Config.Gone, which is not a field or flag",
		"kept names knob.Config.Size, which passes every rule: drop the entry",
		"kept names torture -quiet, which passes every rule: drop the entry",
	}
	if !reflect.DeepEqual(r.stale, wantStale) {
		t.Errorf("stale:\n got %q\nwant %q", r.stale, wantStale)
	}
}

// field is one struct field declared under internal/ and what non-test code
// does with it.
type field struct {
	v     *types.Var
	key   string // package below internal/, struct type, field
	where string
	// knob: an exported field of a *Config, Profile or *Spec struct, which
	// the two-values rule also applies to.
	knob   bool
	exempt bool // public API (package hohtx re-exports its type) or read by encoding/json
	read   bool
	sets   []setter
	// omitted counts the composite literals of the field's struct that
	// leave it out: each gives it its zero value.
	omitted int
}

// setter is one place non-test code gives a field a value.
type setter struct {
	from  *types.Var // the value is a copy of this field
	value string     // the value, when it is a constant ("0" for any zero value)
	dflt  bool       // inside an if that tests the field: a defaulting assignment
}

// flagReg is one flag a command under cmd/ registers.
type flagReg struct {
	key   string // "<command> -<name>"
	where string
	cmd   string
	name  string
}

type settableReport struct {
	findings, stale      []string
	fields, knobs, flags int
}

// settable applies the field rules and the flag rule to everything l loaded.
func settable(l *loader, kept map[string]string) settableReport {
	s := &settableAudit{l: l, kept: kept, byVar: map[*types.Var]*field{}}
	for _, pattern := range docs {
		matches, _ := filepath.Glob(filepath.Join(l.root, pattern))
		for _, m := range matches {
			data, _ := os.ReadFile(m)
			s.docs += string(data) + "\n"
		}
	}
	s.collectFields()
	for _, p := range l.pkgs {
		for _, f := range p.files {
			s.walk(p, f)
		}
	}
	flags, findings := s.flagRule()

	var r settableReport
	for _, f := range s.fields {
		r.fields++
		if f.knob {
			r.knobs++
		}
	}
	r.flags = len(flags)

	set := s.setFixpoint()
	known := map[string]bool{}
	failing := map[string]bool{}
	for _, f := range s.fields {
		known[f.key] = true
		if f.exempt {
			continue
		}
		var why []string
		if !set[f.v] {
			why = append(why, "never set")
		}
		if !f.read {
			why = append(why, "never read")
		}
		if v, one := s.oneValue(f, set); set[f.v] && one {
			why = append(why, "every setter gives it "+v)
		}
		if len(why) == 0 {
			continue
		}
		failing[f.key] = true
		if _, ok := kept[f.key]; !ok {
			findings = append(findings, fmt.Sprintf("%s: %s: %s", f.where, f.key, strings.Join(why, ", ")))
		}
	}
	for _, fl := range flags {
		known[fl.key] = true
		if !s.named(fl) {
			failing[fl.key] = true
			if _, ok := kept[fl.key]; !ok {
				findings = append(findings, fmt.Sprintf("%s: %s: named in no document, script or printed line", fl.where, fl.key))
			}
		}
	}
	sortByPosition(findings)
	r.findings = findings

	// A key of the allowlist that is neither a field nor a flag is the
	// declaration audit's.
	for key := range kept {
		switch {
		case known[key] && !failing[key]:
			r.stale = append(r.stale, fmt.Sprintf("kept names %s, which passes every rule: drop the entry", key))
		case !known[key] && (strings.Contains(key, " ") || fieldKey(l, key)):
			r.stale = append(r.stale, fmt.Sprintf("kept names %s, which is not a field or flag", key))
		}
	}
	sort.Strings(r.stale)
	return r
}

// sortByPosition sorts "file:line: ..." lines by file, then line.
func sortByPosition(lines []string) {
	pos := func(s string) (string, int) {
		file, rest, _ := strings.Cut(s, ":")
		n, _, _ := strings.Cut(rest, ":")
		line, _ := strconv.Atoi(n)
		return file, line
	}
	sort.Slice(lines, func(i, j int) bool {
		fi, li := pos(lines[i])
		fj, lj := pos(lines[j])
		return fi < fj || fi == fj && li < lj
	})
}

// fieldKey reports whether key is shaped like a field's: package, struct
// type and a name that is not a declaration of that package.
func fieldKey(l *loader, key string) bool {
	parts := strings.Split(key, ".")
	if len(parts) < 3 {
		return false
	}
	p := l.pkgs[module+"/internal/"+parts[0]]
	if p == nil {
		return false
	}
	tn, ok := p.types.Scope().Lookup(parts[1]).(*types.TypeName)
	if !ok {
		return false
	}
	if _, isStruct := tn.Type().Underlying().(*types.Struct); !isStruct {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), parts[2])
	_, isFunc := obj.(*types.Func)
	return !isFunc
}

type settableAudit struct {
	l      *loader
	kept   map[string]string
	fields []*field
	byVar  map[*types.Var]*field
	docs   string // the text of every file docs names
}

var configName = regexp.MustCompile(`^(\w*Config|Profile|\w*Spec)$`)

// collectFields indexes every field of every struct type declared at package
// level under internal/, and of the anonymous structs nested in them.
func (s *settableAudit) collectFields() {
	api := map[*types.TypeName]bool{}
	if root := s.l.pkgs[module]; root != nil {
		for _, name := range root.types.Scope().Names() {
			if tn, ok := root.types.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					api[n.Obj()] = true
				}
			}
		}
	}
	for path, p := range s.l.pkgs {
		if !strings.HasPrefix(path, module+"/internal/") {
			continue
		}
		qual := strings.TrimPrefix(path, module+"/internal/")
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			s.addStruct(st, qual+"."+name, configName.MatchString(name), api[tn])
		}
	}
}

func (s *settableAudit) addStruct(st *types.Struct, owner string, config, api bool) {
	for i := 0; i < st.NumFields(); i++ {
		v := st.Field(i)
		if inner := anonStruct(v.Type()); inner != nil {
			s.addStruct(inner, owner+"."+v.Name(), false, false)
		}
		if v.Name() == "_" {
			continue
		}
		tag := reflect.StructTag(st.Tag(i)).Get("json")
		f := &field{
			v:      v,
			key:    owner + "." + v.Name(),
			where:  s.where(v.Pos()),
			knob:   config && v.Exported(),
			exempt: api && v.Exported() || tag != "" && tag != "-",
		}
		// A struct embedded by value is given its values by the pointer
		// methods promoted from it, which interface calls hide from the walk.
		if v.Embedded() && types.NewMethodSet(types.NewPointer(v.Type())).Len() > types.NewMethodSet(v.Type()).Len() {
			f.sets = append(f.sets, setter{})
		}
		s.fields = append(s.fields, f)
		s.byVar[v] = f
	}
}

// anonStruct returns the struct type literal t is, or holds as its element.
func anonStruct(t types.Type) *types.Struct {
	for {
		switch u := t.(type) {
		case *types.Struct:
			return u
		case *types.Array:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Pointer:
			t = u.Elem()
		default:
			return nil
		}
	}
}

func (s *settableAudit) lookup(v *types.Var) *field {
	if v == nil {
		return nil
	}
	return s.byVar[v.Origin()]
}

// walker visits one non-test file.
type walker struct {
	s       *settableAudit
	info    *types.Info
	stack   []ast.Node
	targets map[*ast.SelectorExpr]bool // selectors written, not read
}

func (s *settableAudit) walk(p *pkg, f *ast.File) {
	w := &walker{s: s, info: p.info, targets: map[*ast.SelectorExpr]bool{}}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			w.stack = w.stack[:len(w.stack)-1]
			return true
		}
		w.stack = append(w.stack, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) && (n.Tok == token.ASSIGN || n.Tok == token.DEFINE) {
					rhs = n.Rhs[i]
				}
				w.target(lhs, w.valueOf(rhs), false)
			}
		case *ast.IncDecStmt:
			w.target(n.X, setter{}, false)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if e != nil {
						w.target(e, setter{}, false)
					}
				}
			}
		case *ast.UnaryExpr:
			// &x.f escapes: whatever holds the pointer may read or write.
			if n.Op == token.AND {
				w.target(n.X, setter{}, true)
			}
		case *ast.CompositeLit:
			w.literal(n)
		case *ast.SelectorExpr:
			w.selector(n)
		}
		return true
	})
}

// valueOf describes what assigning e gives a field.
func (w *walker) valueOf(e ast.Expr) setter {
	if e == nil {
		return setter{}
	}
	e = ast.Unparen(e)
	tv := w.info.Types[e]
	switch {
	case tv.IsNil():
		return setter{value: "0"}
	case tv.Value != nil:
		return setter{value: constString(tv.Value)}
	}
	// A conversion of a field is still a copy of it.
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 && w.info.Types[call.Fun].IsType() {
		return w.valueOf(call.Args[0])
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if v := w.fieldOf(sel); v != nil {
			return setter{from: v}
		}
	}
	return setter{}
}

func constString(v constant.Value) string {
	switch v.Kind() {
	case constant.Bool:
		if !constant.BoolVal(v) {
			return "0"
		}
	case constant.String:
		if constant.StringVal(v) == "" {
			return "0"
		}
	case constant.Int, constant.Float, constant.Complex:
		if constant.Sign(v) == 0 {
			return "0"
		}
	}
	return v.ExactString()
}

// fieldOf returns the field sel selects, if it selects one.
func (w *walker) fieldOf(sel *ast.SelectorExpr) *types.Var {
	if s := w.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		return s.Obj().(*types.Var).Origin()
	}
	return nil
}

// target records e as written with value v: a field selector, an element
// of one, or a field of one, all the way down to a variable. Writing x.f
// writes f and, when x is a struct value, x's own field too. A plain write
// target is not a read; an escaping one (&x.f, a pointer method's
// receiver) is both.
func (w *walker) target(e ast.Expr, v setter, read bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		fv := w.fieldOf(e)
		if fv == nil {
			return
		}
		if !read {
			w.targets[e] = true
		}
		w.embedded(e, true)
		if f := w.s.lookup(fv); f != nil {
			v.dflt = v.value != "" && !isBool(fv.Type()) && w.defaulting(fv)
			f.sets = append(f.sets, v)
		}
		if !isPointer(w.info.TypeOf(e.X)) {
			w.target(e.X, setter{}, read)
		}
	case *ast.IndexExpr:
		// An element write (s.Aborts[c] += n) writes the field.
		if !isPointer(w.info.TypeOf(e.X)) {
			w.target(e.X, setter{}, read)
		}
	}
}

func isPointer(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

func isBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsBoolean != 0
}

// defaulting reports whether the constant write being walked sits inside an
// if whose condition tests v for zero (v == 0, v <= 0, v == nil): the
// constructor replacing a zero value with its default, which gives the
// field no value of its own. A bool has no such default (false would be
// indistinguishable from unset), so callers leave bools out.
func (w *walker) defaulting(v *types.Var) bool {
	tested := false
	for _, n := range w.stack {
		if ifs, ok := n.(*ast.IfStmt); ok {
			ast.Inspect(ifs.Cond, func(n ast.Node) bool {
				b, ok := n.(*ast.BinaryExpr)
				if ok && (b.Op == token.EQL || b.Op == token.LEQ || b.Op == token.LSS) && w.zero(b.Y) {
					if sel, ok := ast.Unparen(b.X).(*ast.SelectorExpr); ok && w.fieldOf(sel) == v {
						tested = true
					}
				}
				return !tested
			})
		}
	}
	return tested
}

// zero reports whether e is a zero value: nil, a zero constant or an empty
// struct literal.
func (w *walker) zero(e ast.Expr) bool {
	e = ast.Unparen(e)
	if lit, ok := e.(*ast.CompositeLit); ok {
		return len(lit.Elts) == 0
	}
	tv := w.info.Types[e]
	return tv.IsNil() || tv.Value != nil && constString(tv.Value) == "0"
}

// embedded marks the embedded fields a promoted selection passes through:
// read, and written too when the selection writes.
func (w *walker) embedded(sel *ast.SelectorExpr, write bool) {
	s := w.info.Selections[sel]
	if s == nil || len(s.Index()) < 2 {
		return
	}
	t := s.Recv()
	for _, i := range s.Index()[:len(s.Index())-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		v := st.Field(i)
		if f := w.s.lookup(v); f != nil {
			f.read = true
			if write {
				f.sets = append(f.sets, setter{})
			}
		}
		t = v.Type()
	}
}

// selector records a field read, or a method call's use of its receiver: a
// pointer method called on a field held by value may write it.
func (w *walker) selector(sel *ast.SelectorExpr) {
	s := w.info.Selections[sel]
	if s == nil {
		return
	}
	switch s.Kind() {
	case types.FieldVal:
		if w.targets[sel] {
			return
		}
		if f := w.s.lookup(w.fieldOf(sel)); f != nil {
			f.read = true
		}
		w.embedded(sel, false)
	case types.MethodVal:
		recv := s.Obj().Type().(*types.Signature).Recv()
		ptr := recv != nil && isPointer(recv.Type())
		w.embedded(sel, ptr)
		if ptr && !isPointer(w.info.TypeOf(sel.X)) {
			w.target(sel.X, setter{}, true)
		}
	}
}

// literal records the fields a struct literal sets, and the ones it leaves
// out (their zero value).
func (w *walker) literal(lit *ast.CompositeLit) {
	t := w.info.TypeOf(lit)
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	given := map[*types.Var]bool{}
	for i, el := range lit.Elts {
		var v *types.Var
		val := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			id, _ := kv.Key.(*ast.Ident)
			if id != nil {
				v, _ = w.info.Uses[id].(*types.Var)
			}
			val = kv.Value
		} else if i < st.NumFields() {
			v = st.Field(i)
		}
		if v == nil {
			continue
		}
		v = v.Origin()
		given[v] = true
		if f := w.s.lookup(v); f != nil {
			f.sets = append(f.sets, w.valueOf(val))
		}
	}
	for i := 0; i < st.NumFields(); i++ {
		if v := st.Field(i).Origin(); !given[v] {
			if f := w.s.lookup(v); f != nil {
				f.omitted++
			}
		}
	}
}

// setFixpoint returns the fields some non-test code gives a value: a setter
// that is not a defaulting assignment, and is not a copy of a field that is
// itself never set.
func (s *settableAudit) setFixpoint() map[*types.Var]bool {
	set := map[*types.Var]bool{}
	for changed := true; changed; {
		changed = false
		for _, f := range s.fields {
			if set[f.v] {
				continue
			}
			for _, st := range f.sets {
				if s.counts(st, set) {
					set[f.v], changed = true, true
					break
				}
			}
		}
	}
	return set
}

// counts reports whether st gives its field a value. A copy counts when its
// source is set, is no audited field, is public API (its users set it) or
// is allowlisted (a test sets it).
func (s *settableAudit) counts(st setter, set map[*types.Var]bool) bool {
	if st.dflt {
		return false
	}
	src := s.byVar[st.from]
	if src == nil || src.exempt || set[st.from] {
		return true
	}
	_, ok := s.kept[src.key]
	return ok
}

// oneValue reports whether every value non-test code gives a knob is the
// same constant, and which. A zero value, given or left by a literal,
// counts as the default the constructor replaces it with.
func (s *settableAudit) oneValue(f *field, set map[*types.Var]bool) (string, bool) {
	if !f.knob {
		return "", false
	}
	dflt := "0"
	for _, st := range f.sets {
		if st.dflt && st.value != "" {
			dflt = st.value
		}
	}
	values := map[string]bool{}
	for _, st := range f.sets {
		if !s.counts(st, set) {
			continue
		}
		if st.value == "" {
			return "", false // not a constant
		}
		values[st.value] = true
	}
	if f.omitted > 0 {
		values["0"] = true
	}
	if values["0"] {
		delete(values, "0")
		values[dflt] = true
	}
	if len(values) != 1 {
		return "", false
	}
	for v := range values {
		return v, true
	}
	return "", false
}

// flagRule collects every flag the commands under cmd/ register, FlagSets
// included, and checks every -name= token of torture's repro lines against
// cmd/torture's flags.
func (s *settableAudit) flagRule() ([]flagReg, []string) {
	var flags []flagReg
	for path, p := range s.l.pkgs {
		if !strings.HasPrefix(path, module+"/cmd/") {
			continue
		}
		cmd := strings.TrimPrefix(path, module+"/cmd/")
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, ok := flagName(p.info, call); ok {
					flags = append(flags, flagReg{
						key:   cmd + " -" + name,
						where: s.where(call.Pos()),
						cmd:   cmd,
						name:  name,
					})
				}
				return true
			})
		}
	}

	torture := map[string]bool{}
	for _, fl := range flags {
		if fl.cmd == "torture" {
			torture[fl.name] = true
		}
	}
	var findings []string
	for _, path := range []string{module + "/cmd/torture", module + "/internal/torture"} {
		p := s.l.pkgs[path]
		if p == nil {
			continue
		}
		for _, lit := range literals(p) {
			for _, m := range reproToken.FindAllStringSubmatch(lit.text, -1) {
				if !torture[m[1]] {
					findings = append(findings, fmt.Sprintf("%s: literal names -%s=, which cmd/torture does not register", s.where(lit.pos), m[1]))
				}
			}
		}
	}
	return flags, findings
}

var reproToken = regexp.MustCompile(`(?:^|[^\w-])-([A-Za-z][\w-]*)=`)

// flagName returns the name a flag registration call registers.
func flagName(info *types.Info, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	}
	if id == nil {
		return "", false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
		return "", false
	}
	arg := 0
	switch name := fn.Name(); {
	case strings.HasSuffix(name, "Var"):
		arg = 1
	case registers[name]:
	default:
		return "", false
	}
	if len(call.Args) <= arg {
		return "", false
	}
	if v := info.Types[call.Args[arg]].Value; v != nil && v.Kind() == constant.String {
		return constant.StringVal(v), true
	}
	return "", false
}

// registers are the flag functions (and FlagSet methods) other than the
// *Var ones that register a flag, its name their first argument.
var registers = map[string]bool{
	"Bool": true, "BoolFunc": true, "Duration": true, "Float64": true, "Func": true,
	"Int": true, "Int64": true, "String": true, "Uint": true, "Uint64": true,
}

type literal struct {
	text string
	pos  token.Pos
}

// literals returns p's string literals.
func literals(p *pkg) []literal {
	var out []literal
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if bl, ok := n.(*ast.BasicLit); ok && bl.Kind == token.STRING {
				if text, err := strconv.Unquote(bl.Value); err == nil {
					out = append(out, literal{text, bl.Pos()})
				}
			}
			return true
		})
	}
	return out
}

func (s *settableAudit) where(pos token.Pos) string {
	p := s.l.fset.Position(pos)
	rel, _ := filepath.Rel(s.l.root, p.Filename)
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}

// docs are where a user finds a flag: the documents, the figure script and
// the CI workflows.
var docs = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "results/run_all.sh", ".github/workflows/*.yml"}

// named reports whether fl is named as -name where a user finds it: in one
// of the docs, or in a string literal the command itself, or a module
// package it imports, prints.
func (s *settableAudit) named(fl flagReg) bool {
	re := regexp.MustCompile(`(?:^|[^\w-])-` + regexp.QuoteMeta(fl.name) + `(?:[^\w-]|$)`)
	if re.MatchString(s.docs) {
		return true
	}
	seen := map[string]bool{}
	var visit func(path string) bool
	visit = func(path string) bool {
		p := s.l.pkgs[path]
		if p == nil || seen[path] {
			return false
		}
		seen[path] = true
		for _, lit := range literals(p) {
			if re.MatchString(lit.text) {
				return true
			}
		}
		for _, imp := range p.types.Imports() {
			if isModule(imp.Path()) && visit(imp.Path()) {
				return true
			}
		}
		return false
	}
	return visit(module + "/cmd/" + fl.cmd)
}
