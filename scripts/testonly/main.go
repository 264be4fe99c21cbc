// Command testonly fails on exported functions and methods that only
// tests call. It type-checks every non-test .go file under the given root
// (go/types, with the standard library read from source) and resolves
// each call, method value and method expression to the func or method it
// names; benchmark/, examples/ and cmd/ count as callers. An exported func
// or method declared outside benchmark/ that no non-test line resolves to
// is reported, unless the allowlist names it.
//
//	go run ./scripts/testonly . scripts/test_only_exports.txt
//
// The check is by type: when two types share a method name, a call of one
// does not count for the other. A method that satisfies an interface the
// standard library declares (fmt.Stringer's String, error's Error, …), or
// an interface of the tree whose method some line calls, counts as called:
// the scan cannot see a call made through an interface value, so it can
// miss a dead method but never reports a used one.
//
// Each allowlist line is a key — pkg.Func or pkg.Type.Method — and the
// reason it stays; '#' starts a comment line. An entry with no reason,
// or one that names nothing the scan reports, is an error too, so the
// list cannot outlive the code it excuses.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: testonly <root> <allowlist>")
		os.Exit(2)
	}
	problems, err := check(os.Args[1], os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "testonly:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

// check returns one line per allowlist entry without a reason, per
// exported func or method under root that only tests call and the
// allowlist does not excuse, and per allowlist entry that excuses
// nothing.
func check(root, allowPath string) ([]string, error) {
	allow, problems, err := readAllowlist(allowPath)
	if err != nil {
		return nil, err
	}
	decls, err := scan(root)
	if err != nil {
		return nil, err
	}
	for _, d := range decls {
		if allow[d.key] {
			delete(allow, d.key)
			continue
		}
		problems = append(problems, fmt.Sprintf("%s: %s has no caller outside tests", d.pos, d.key))
	}
	var stale []string
	for key := range allow {
		stale = append(stale, fmt.Sprintf("%s: allowlisted %s is not an exported func only tests call", allowPath, key))
	}
	sort.Strings(stale)
	return append(problems, stale...), nil
}

// decl is one declaration of an exported func or method.
type decl struct {
	key string // pkg.Func or pkg.Type.Method
	pos string // file:line
}

// pkgSrc is one directory's non-test package: its parsed files and, once
// checked, its types and the objects its identifiers resolve to.
type pkgSrc struct {
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the tree's packages on demand; every other import
// is read from the standard library's source.
type loader struct {
	fset *token.FileSet
	pkgs map[string]*pkgSrc // by import path
	std  types.Importer
}

func (l *loader) Import(path string) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p.types == nil {
		p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: l}
		t, err := conf.Check(path, l.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = t
	}
	return p.types, nil
}

// scan type-checks every non-test package under root and lists the
// exported funcs and methods declared outside benchmark/ that no non-test
// line resolves to.
func scan(root string) ([]decl, error) {
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*pkgSrc{}}
	build.Default.CgoEnabled = false // the source importer reads build.Default
	l.std = importer.ForCompiler(l.fset, "source", nil)
	mods := map[string]string{} // module root dir → module path
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if n := e.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		dir = filepath.Clean(dir)
		if name == "go.mod" {
			mod, err := modulePath(p)
			mods[dir] = mod
			return err
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(l.fset, p, nil, parser.SkipObjectResolution)
		files[dir] = append(files[dir], f)
		return err
	})
	if err != nil {
		return nil, err
	}
	for dir, fs := range files {
		ip, err := importPath(mods, root, dir)
		if err != nil {
			return nil, err
		}
		l.pkgs[ip] = &pkgSrc{dir: dir, files: fs}
	}
	paths := make([]string, 0, len(l.pkgs))
	for ip := range l.pkgs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	used := map[types.Object]bool{}
	for _, ip := range paths {
		if _, err := l.Import(ip); err != nil {
			return nil, err
		}
		for _, obj := range l.pkgs[ip].info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	markInterfaceCalls(l, used)
	var decls []decl
	for _, ip := range paths {
		p := l.pkgs[ip]
		rel, _ := filepath.Rel(root, p.dir)
		if rel = filepath.ToSlash(rel); rel == "benchmark" || strings.HasPrefix(rel, "benchmark/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				obj := p.info.Defs[fn.Name].(*types.Func)
				if used[obj] {
					continue
				}
				key := f.Name.Name + "." + fn.Name.Name
				if fn.Recv != nil {
					key = f.Name.Name + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				pos := l.fset.Position(fn.Pos())
				file, _ := filepath.Rel(root, pos.Filename)
				decls = append(decls, decl{key, fmt.Sprintf("%s:%d", filepath.ToSlash(file), pos.Line)})
			}
		}
	}
	return decls, nil
}

// modulePath reads the module path a go.mod declares.
func modulePath(gomod string) (string, error) {
	src, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(src), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s declares no module", gomod)
}

// importPath is dir's import path under the nearest enclosing module.
func importPath(mods map[string]string, root, dir string) (string, error) {
	for d := dir; ; d = filepath.Dir(d) {
		if mod, ok := mods[d]; ok {
			rel, _ := filepath.Rel(d, dir)
			return path.Join(mod, filepath.ToSlash(rel)), nil
		}
		if d == root || d == filepath.Dir(d) {
			return "", fmt.Errorf("%s is in no module under %s", dir, root)
		}
	}
}

// markInterfaceCalls marks as called each method through which a named
// type of the tree satisfies an interface method that a line may call:
// every method of error and of a standard-library interface, whose calls
// the scan cannot see, and each method of one of the tree's interfaces
// that a non-test line calls. A value may be boxed as its pointer, so the
// pointer's method set is the one checked.
func markInterfaceCalls(l *loader, used map[types.Object]bool) {
	type iface struct {
		t   *types.Interface
		std bool
	}
	byName := map[string][]iface{}
	add := func(t *types.Interface, std bool) {
		for i := 0; i < t.NumMethods(); i++ {
			byName[t.Method(i).Name()] = append(byName[t.Method(i).Name()], iface{t, std})
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface), true)
	var named []*types.Named
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		_, own := l.pkgs[p.Path()]
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if t, ok := tn.Type().Underlying().(*types.Interface); ok {
				add(t, !own)
			} else if n, ok := tn.Type().(*types.Named); ok && own && n.TypeParams().Len() == 0 {
				named = append(named, n)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		visit(p.types)
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		ms := types.NewMethodSet(ptr)
		checked := map[*types.Interface]bool{}
		for i := 0; i < ms.Len(); i++ {
			for _, it := range byName[ms.At(i).Obj().Name()] {
				if checked[it.t] || !types.Implements(ptr, it.t) {
					checked[it.t] = true
					continue
				}
				checked[it.t] = true
				for j := 0; j < it.t.NumMethods(); j++ {
					if m := it.t.Method(j); it.std || used[m] {
						obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
						used[obj.(*types.Func).Origin()] = true
					}
				}
			}
		}
	}
}

// recvName is a method receiver's type name without pointer or type
// parameters.
func recvName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// readAllowlist returns the allowlisted keys and a problem line for each
// entry that gives no reason.
func readAllowlist(path string) (map[string]bool, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	allow := map[string]bool{}
	var problems []string
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 0 || strings.HasPrefix(fields[0], "#"):
		case len(fields) == 1:
			problems = append(problems, fmt.Sprintf("%s:%d: %s needs a reason", path, n, fields[0]))
		default:
			allow[fields[0]] = true
		}
	}
	return allow, problems, sc.Err()
}
