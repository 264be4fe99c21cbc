// Command testonly fails on exported functions and methods that only
// tests call. It reads every non-test .go file under the given root in
// one pass and counts each identifier outside comments and string
// literals; benchmark/, examples/ and cmd/ count as callers. An exported
// func or method declared outside benchmark/ whose name occurs nowhere
// but at its own declarations is reported, unless the allowlist names it.
//
//	go run ./scripts/testonly . scripts/test_only_exports.txt
//
// The check is by name: a method name that several types share counts
// as used once any of them is called, so it can miss a dead method but
// never reports a used one.
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
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
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
	uses, decls, err := scan(root)
	if err != nil {
		return nil, err
	}
	perName := map[string]int{}
	for _, d := range decls {
		perName[d.name]++
	}
	for _, d := range decls {
		if uses[d.name] > perName[d.name] {
			continue
		}
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
	key  string // pkg.Func or pkg.Type.Method
	name string // the bare identifier the scan counts
	pos  string // file:line
}

// scan counts identifiers over every non-test .go file under root and
// lists the exported funcs and methods declared outside benchmark/.
func scan(root string) (map[string]int, []decl, error) {
	uses := map[string]int{}
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if n := e.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		for _, tok, lit := s.Scan(); tok != token.EOF; _, tok, lit = s.Scan() {
			if tok == token.IDENT {
				uses[lit]++
			}
		}
		rel, _ := filepath.Rel(root, path)
		if strings.HasPrefix(filepath.ToSlash(rel), "benchmark/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				key = f.Name.Name + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fn.Name.Name, fmt.Sprintf("%s:%d", rel, fset.Position(fn.Pos()).Line)})
		}
		return nil
	})
	return uses, decls, err
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
