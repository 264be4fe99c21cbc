package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCheck runs the scan over a small tree: a func and a method only a
// test calls are reported, callers in cmd/ and benchmark/ count, a name
// in a comment or a string does not, benchmark/'s own declarations are
// not checked, and the allowlist excuses a name only with a reason and
// only while the name still needs excusing.
func TestCheck(t *testing.T) {
	root := t.TempDir()
	for path, src := range map[string]string{
		"lib/lib.go": `package lib

type T struct{}

func Used()           {}
func BenchUsed()      {}
func Dead()           {}
func Excused()        {}
func (T) Method()     {}
func (*T) Called()    {}
func unexported()     {}
`,
		"lib/lib_test.go": `package lib

func useAll() { Dead(); Excused(); T{}.Method() }
`,
		"cmd/tool/main.go": `package main

import "lib"

// Dead() is only mentioned here.
func main() { lib.Used(); new(lib.T).Called(); println("Dead") }
`,
		"benchmark/bench.go": `package bench

import "lib"

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
		"lib/lib.go:7: lib.Dead has no caller outside tests",
		"lib/lib.go:9: lib.T.Method has no caller outside tests",
		allow + ": allowlisted lib.Used is not an exported func only tests call",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("check:\n%q\nwant:\n%q", got, want)
	}
}
