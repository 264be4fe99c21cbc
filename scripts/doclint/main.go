// Command doclint enforces the repo's godoc contract: every exported
// symbol in the listed package directories must carry a doc comment.
// Offline-friendly replacement for the doc-comment checks of revive /
// golint, built on the standard library only.
//
//	go run ./scripts/doclint ./internal/gir ./internal/fusion ...
//
// Exit status 1 if any exported symbol is undocumented. Test files are
// skipped; so are struct fields and interface methods (the type's doc
// is expected to carry the contract).
//
// A second mode keeps the operator guide honest about command-line
// flags:
//
//	go run ./scripts/doclint -flags docs/operations.md ./cmd/seastar-train ...
//
// parses the flag definitions out of each listed binary's source and
// checks both directions: every defined flag must be mentioned (as a
// backticked `-name` token) in the markdown section headed by that
// binary's name, and every lone backticked `-name` token anywhere in
// the document must be a flag some listed binary actually defines —
// so the guide can neither omit a flag nor document a phantom one.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doclint <pkg-dir>... | doclint -flags <doc.md> <cmd-dir>...")
		os.Exit(2)
	}
	if os.Args[1] == "-flags" {
		if len(os.Args) < 4 {
			fmt.Fprintln(os.Stderr, "usage: doclint -flags <doc.md> <cmd-dir>...")
			os.Exit(2)
		}
		lintFlags(os.Args[2], os.Args[3:])
		return
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		miss, err := lintDir(strings.TrimPrefix(dir, "./"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(2)
		}
		for _, m := range miss {
			fmt.Println(m)
		}
		bad += len(miss)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d exported symbols lack doc comments\n", bad)
		os.Exit(1)
	}
	fmt.Println("doclint OK")
}

// lintDir parses every non-test Go file in dir and returns one
// "file:line: symbol" string per undocumented exported declaration.
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var miss []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		miss = append(miss, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			filepath.ToSlash(p.Filename), p.Line, what, name))
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						report(d.Pos(), "function", d.Name.Name)
					}
				case *ast.GenDecl:
					lintGen(d, report)
				}
			}
		}
	}
	return miss, nil
}

// lintGen handles const/var/type blocks: a doc comment on the block
// covers single-spec declarations; inside grouped blocks each exported
// spec needs its own comment unless the block itself is documented.
func lintGen(d *ast.GenDecl, report func(token.Pos, string, string)) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			if d.Doc != nil || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					report(n.Pos(), kindWord(d.Tok), n.Name)
				}
			}
		}
	}
}

func kindWord(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}

// lintFlags cross-checks docPath against the flags defined by the
// listed cmd directories and exits non-zero on any mismatch.
func lintFlags(docPath string, dirs []string) {
	doc, err := os.ReadFile(docPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(2)
	}
	defined := map[string]bool{} // union across binaries, for the reverse check
	bad := 0
	for _, dir := range dirs {
		bin := filepath.Base(strings.TrimSuffix(dir, "/"))
		flags, err := cmdFlags(strings.TrimPrefix(dir, "./"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(2)
		}
		for _, f := range flags {
			defined[f] = true
		}
		section := docSection(string(doc), bin)
		if section == "" {
			fmt.Printf("%s: no section heading for %s\n", docPath, bin)
			bad++
			continue
		}
		for _, f := range flags {
			if !strings.Contains(section, "`-"+f+"`") {
				fmt.Printf("%s: section %s does not document flag -%s\n", docPath, bin, f)
				bad++
			}
		}
	}
	for _, tok := range backtickFlags(string(doc)) {
		if !defined[tok] {
			fmt.Printf("%s: documents flag -%s, which no listed binary defines\n", docPath, tok)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d flag-doc mismatches\n", bad)
		os.Exit(1)
	}
	fmt.Println("doclint -flags OK")
}

// cmdFlags parses the non-test Go files of a main package and returns
// the names passed to flag.String/Bool/Int/.../Var definitions, on the
// flag package or on a flag.FlagSet held in a variable named fs.
func cmdFlags(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var flags []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv, ok := sel.X.(*ast.Ident)
				if !ok || (recv.Name != "flag" && recv.Name != "fs") {
					return true
				}
				// Name is arg 0 for flag.String/Bool/... and flag.Func,
				// arg 1 for the flag.XxxVar and flag.Var forms.
				idx := 0
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					idx = 1
				}
				if sel.Sel.Name == "Parse" || sel.Sel.Name == "NewFlagSet" || len(call.Args) <= idx {
					return true
				}
				if lit, ok := call.Args[idx].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					flags = append(flags, strings.Trim(lit.Value, `"`))
				}
				return true
			})
		}
	}
	return flags, nil
}

// docSection returns the markdown between the first heading line whose
// text contains name and the next heading of the same or higher level
// (fewer or equal '#'), or "" when no heading matches.
func docSection(doc, name string) string {
	lines := strings.Split(doc, "\n")
	start, level := -1, 0
	for i, l := range lines {
		if !strings.HasPrefix(l, "#") {
			continue
		}
		n := len(l) - len(strings.TrimLeft(l, "#"))
		if start < 0 {
			if strings.Contains(l, name) {
				start, level = i, n
			}
		} else if n <= level {
			return strings.Join(lines[start:i], "\n")
		}
	}
	if start < 0 {
		return ""
	}
	return strings.Join(lines[start:], "\n")
}

// backtickFlags extracts every backtick span in doc whose entire
// content is a single flag token like -graph-store (one leading dash,
// then lowercase/digit/dash). Spans with spaces or other text — full
// command lines — are ignored; only lone `-name` mentions are claims
// the reverse check holds the doc to.
func backtickFlags(doc string) []string {
	var out []string
	for {
		i := strings.IndexByte(doc, '`')
		if i < 0 {
			return out
		}
		j := strings.IndexByte(doc[i+1:], '`')
		if j < 0 {
			return out
		}
		span := doc[i+1 : i+1+j]
		doc = doc[i+j+2:]
		if len(span) < 2 || span[0] != '-' {
			continue
		}
		name := span[1:]
		ok := true
		for _, c := range name {
			if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-') {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, name)
		}
	}
}
