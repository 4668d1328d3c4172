package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist holds the exported names of internal/ that no other
// package's non-test code names, each with the reason it stays exported.
// A reason starts with one of exportReasonKinds.
var exportAllowlist = map[string]string{
	"abft.Protected.SetPolicy":               "roadmap 5: the tolerance policy is item 5's decision",
	"abft.Protected.Stats":                   "tests of core",
	"abft.Stats":                             "tests of core",
	"abft.TolComponent":                      "roadmap 5: the tolerance policy is item 5's decision",
	"abft.TolNorm":                           "roadmap 5: the tolerance policy is item 5's decision",
	"abft.TolerancePolicy":                   "roadmap 5: the tolerance policy is item 5's decision",
	"api.Client.AdminAddShard":               "tests of router",
	"api.Client.AdminAddShardWeighted":       "tests of router",
	"api.Client.AdminDrainShard":             "tests of router, resrouter",
	"api.Client.AdminRemoveShard":            "tests of router",
	"api.Client.AdminTopology":               "tests of router",
	"api.Client.Tracez":                      "tests of router, server",
	"api.MaxBatchRHS":                        "tests of server",
	"api.NewSSEReader":                       "tests of server",
	"api.SSEReader":                          "tests of server",
	"api.SSEReader.LastFrameData":            "tests of server",
	"api.SSEReader.Next":                     "tests of server",
	"api.SolveEvent.Terminal":                "tests of server",
	"api.WithAdminToken":                     "tests of router, resrouter",
	"checksum.ErrNoShift":                    "tests of abft, api, core, harness, server",
	"checksum.Matrix.ToleranceComponentBoth": "tests of abft",
	"checksum.Vector.Defect":                 "tests of abft",
	"checksum.VectorTolerance":               "tests of abft",
	"core.ErrBreakdown":                      "tests of harness, server",
	"core.ErrNotConverged":                   "tests of harness",
	"core.ErrScale":                          "tests of harness, server",
	"core.OnlineMaxD":                        "tests of model",
	"harness.Result.Canonical":               "tests of resbench, server",
	"model.OptimalPlacement":                 "roadmap 5: the DP optimum the model is measured against",
	"obs.ValidTraceID":                       "tests of router, server",
	"router.TopologySchemaVersion":           "tests of resrouter",
	"solver.BiCGstab":                        "reference: the unprotected BiCGstab core's tests compare against",
	"solver.CG":                              "reference: the unprotected CG core's tests compare against",
	"solver.Result":                          "reference: what CG and BiCGstab return",
	"sparse.CSR.At":                          "tests of precond",
	"sparse.CSR.Equal":                       "tests of abft, checkpoint, core, fault, harness, precond, sim",
	"sparse.CSR.IsSymmetric":                 "tests of precond, sim",
	"sparse.Dense":                           "tests of abft, checksum, core, precond, solver",
	"vec.BlockSize":                          "tests of core, tmr, cgsolve and the root",
	"vec.NormInf":                            "tests of abft, core, solver",
}

// exportReasonKinds are the reasons an export without a caller may keep:
// a reference implementation tests compare against, a decision ROADMAP
// item 5 or a bench/ debt of item 3 still holds, or a helper or sentinel
// that the named packages' tests use.
var exportReasonKinds = []string{"reference", "roadmap 5", "roadmap 3", "tests of "}

// TestEveryExportHasACaller fails on an exported name or method in
// internal/ that no non-test file of another package names, and on an
// allowlist entry that is no longer such a name. A failure lists the names;
// give each a caller, delete it, unexport it, move it into a _test.go file,
// or allowlist it with one of exportReasonKinds.
func TestEveryExportHasACaller(t *testing.T) {
	dead, err := deadExports(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkAllowlist(dead, exportAllowlist) {
		t.Error(p)
	}
	for name, reason := range exportAllowlist {
		if !hasReasonKind(reason) {
			t.Errorf("allowlist entry %s: reason %q starts with none of %q", name, reason, exportReasonKinds)
		}
	}
}

// TestExportGateRules runs the gate over testdata/exportgate, a module
// with one dead export, a method that only io.Reader wants, an enum
// constant of a used type, a type that only a used constructor returns,
// all named from cmd/, and one stale allowlist entry.
func TestExportGateRules(t *testing.T) {
	dead, err := deadExports(filepath.Join("testdata", "exportgate"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	got := checkAllowlist(dead, map[string]string{"lib.Gone": "reference"})
	want := []string{
		"no caller: lib.Dead",
		"stale allowlist entry: lib.Gone",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("gate reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func hasReasonKind(reason string) bool {
	for _, k := range exportReasonKinds {
		if strings.HasPrefix(reason, k) {
			return true
		}
	}
	return false
}

// checkAllowlist returns, sorted, one line per dead name the allowlist
// misses and one per allowlist entry that names no dead export.
func checkAllowlist(dead []string, allow map[string]string) []string {
	var out []string
	isDead := map[string]bool{}
	for _, n := range dead {
		isDead[n] = true
		if _, ok := allow[n]; !ok {
			out = append(out, "no caller: "+n)
		}
	}
	for n := range allow {
		if !isDead[n] {
			out = append(out, "stale allowlist entry: "+n)
		}
	}
	sort.Strings(out)
	return out
}

// callerRoots are the top-level directories whose non-test code counts as
// a caller; "." is the module root's own package.
var callerRoots = []string{"internal", "cmd", "examples", "bench", "."}

// deadExports type-checks the non-test files of the module rooted at dir
// (module path mod) and returns the exported names of its internal/
// packages that no caller names, as "pkg.Name" or "pkg.Type.Method".
// A name counts as named when another package's non-test code under
// callerRoots uses it, when it is a type reachable from a named export's
// signature, type or exported fields, when it is a method that implements
// an interface declared in any loaded package, or when it is a constant of
// a named type.
func deadExports(dir, mod string) ([]string, error) {
	// Cgo variants of the standard library add nothing to who names what
	// and would need a C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &module{
		fset: fset, dir: dir, mod: mod,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*modPkg{},
	}
	var paths []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != dir && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(dir, p)
		paths = append(paths, path.Join(mod, filepath.ToSlash(rel)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		if _, err := m.load(p); err != nil {
			return nil, err
		}
	}

	// The exported names under internal/, by object.
	names := map[types.Object]string{}
	consts := map[*types.TypeName][]types.Object{}
	for _, p := range m.pkgs {
		if p == nil {
			continue
		}
		short, ok := strings.CutPrefix(p.types.Path(), mod+"/internal/")
		if !ok {
			continue
		}
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if !obj.Exported() {
				continue
			}
			names[obj] = short + "." + n
			if c, ok := obj.(*types.Const); ok {
				if named, ok := c.Type().(*types.Named); ok {
					consts[named.Obj()] = append(consts[named.Obj()], c)
				}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() {
					names[fn] = short + "." + n + "." + fn.Name()
				}
			}
		}
	}

	used := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		obj = origin(obj)
		if _, ok := names[obj]; ok && !used[obj] {
			used[obj] = true
			work = append(work, obj)
		}
	}

	// Rule 1: another caller package's non-test code names it.
	for _, p := range m.pkgs {
		if p == nil || !isCaller(p.types.Path(), mod) {
			continue
		}
		for _, obj := range p.info.Uses {
			if obj.Pkg() != nil && obj.Pkg() != p.types {
				mark(obj)
			}
		}
	}

	// Rule 3: a method that implements an interface of any loaded package.
	ifaces := loadedInterfaces(m)
	for obj := range names {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		for _, iface := range ifaces[fn.Name()] {
			if types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface) {
				mark(fn)
				break
			}
		}
	}

	// Rules 2 and 4: the types a named export reaches, and the constants
	// of a named type, until nothing new is named.
	seen := map[types.Type]bool{}
	var reach func(types.Type)
	reach = func(t types.Type) {
		t = types.Unalias(t)
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			mark(t.Obj())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				reach(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			reach(t.Elem())
		case *types.Slice:
			reach(t.Elem())
		case *types.Array:
			reach(t.Elem())
		case *types.Chan:
			reach(t.Elem())
		case *types.Map:
			reach(t.Key())
			reach(t.Elem())
		case *types.Signature:
			if t.Recv() != nil {
				reach(t.Recv().Type())
			}
			for i := 0; i < t.Params().Len(); i++ {
				reach(t.Params().At(i).Type())
			}
			for i := 0; i < t.Results().Len(); i++ {
				reach(t.Results().At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					reach(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumExplicitMethods(); i++ {
				reach(t.ExplicitMethod(i).Type())
			}
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		reach(obj.Type())
		if tn, ok := obj.(*types.TypeName); ok {
			reach(tn.Type().Underlying())
			for _, c := range consts[tn] {
				mark(c)
			}
		}
	}

	var dead []string
	for obj, n := range names {
		if !used[obj] {
			dead = append(dead, n)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

func isCaller(pkgPath, mod string) bool {
	rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, mod), "/")
	top, _, _ := strings.Cut(rel, "/")
	if top == "" {
		top = "."
	}
	for _, r := range callerRoots {
		if r == top {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic function, method or field back to
// the object its declaration made.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// loadedInterfaces indexes, by method name, error and every non-generic
// named interface with methods declared in a package the module loads.
func loadedInterfaces(m *module) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			iface, ok := named.Underlying().(*types.Interface)
			if !ok || !iface.IsMethodSet() {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				name := iface.Method(i).Name()
				out[name] = append(out[name], iface)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range m.pkgs {
		if p != nil {
			visit(p.types)
		}
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	out["Error"] = append(out["Error"], errIface)
	return out
}

// module type-checks the non-test files of one module's packages, taking
// the standard library from source.
type module struct {
	fset     *token.FileSet
	dir, mod string
	std      types.Importer
	pkgs     map[string]*modPkg
}

type modPkg struct {
	types *types.Package
	info  *types.Info
}

func (m *module) Import(p string) (*types.Package, error) {
	if p != m.mod && !strings.HasPrefix(p, m.mod+"/") {
		return m.std.Import(p)
	}
	mp, err := m.load(p)
	if err != nil {
		return nil, err
	}
	if mp == nil {
		return nil, fmt.Errorf("%s: no non-test Go files", p)
	}
	return mp.types, nil
}

// load type-checks the package at import path p once; it returns nil for
// a directory without non-test Go files.
func (m *module) load(p string) (*modPkg, error) {
	if mp, ok := m.pkgs[p]; ok {
		return mp, nil
	}
	dir := filepath.Join(m.dir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(p, m.mod), "/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		m.pkgs[p] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, f := range bp.GoFiles {
		af, err := parser.ParseFile(m.fset, filepath.Join(dir, f), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(p, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	mp := &modPkg{types: tp, info: info}
	m.pkgs[p] = mp
	return mp, nil
}
