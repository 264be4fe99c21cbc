package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCheck runs the scan over a small module: a func and a method only a
// test calls are reported, callers in cmd/ and benchmark/ count, a name
// in a comment or a string does not, benchmark/'s own declarations are
// not checked, and the allowlist excuses a name only with a reason and
// only while the name still needs excusing. Methods resolve by type: U's
// Called is reported though T's, of the same name, is called; a method
// that satisfies fmt.Stringer, or the tree's own interface whose method
// cmd/ calls, is not.
func TestCheck(t *testing.T) {
	root := t.TempDir()
	for path, src := range map[string]string{
		"go.mod": "module example\n",
		"lib/lib.go": `package lib

type T struct{}
type U struct{}
type Runner interface{ Run() }

func Used()              {}
func BenchUsed()         {}
func Dead()              {}
func Excused()           {}
func (T) Method()        {}
func (*T) Called()       {}
func (U) Called()        {}
func (U) String() string { return "" }
func (U) Run()           {}
func unexported()        {}
`,
		"lib/lib_test.go": `package lib

func useAll() { Dead(); Excused(); T{}.Method(); U{}.Called() }
`,
		"cmd/tool/main.go": `package main

import (
	"example/lib"
	"fmt"
)

// Dead() is only mentioned here.
func main() {
	lib.Used()
	new(lib.T).Called()
	fmt.Println("Dead", lib.U{})
	var r lib.Runner = lib.U{}
	r.Run()
}
`,
		"benchmark/bench.go": `package bench

import "example/lib"

func Run() { lib.BenchUsed() }
`,
		"allow.txt": `# header
lib.Excused  kept for a reason
lib.Used     stale: Used has a caller
lib.T.Method
`,
	} {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allow := filepath.Join(root, "allow.txt")
	got, err := check(root, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		allow + ":4: lib.T.Method needs a reason",
		"lib/lib.go:9: lib.Dead has no caller outside tests",
		"lib/lib.go:11: lib.T.Method has no caller outside tests",
		"lib/lib.go:13: lib.U.Called has no caller outside tests",
		allow + ": allowlisted lib.Used is not an exported func only tests call",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("check:\n%q\nwant:\n%q", got, want)
	}
}
