package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestBinaryGolden is the binary's black-box check, one build run twice.
//
// A full-graph run reports the simulated GPU the paper's figures use: its
// stdout and its -trace file must match testdata byte for byte, so any
// change to what the simulator charges shows up here. A -minibatch run
// simulates nothing: its per-epoch loss and seed-accuracy lines must
// match, with the wall clock masked.
func TestBinaryGolden(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the binary with")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dir := t.TempDir()
	bin := filepath.Join(dir, "seastar-train")
	if out, err := exec.CommandContext(ctx, goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) []byte {
		t.Helper()
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Dir = dir // -trace names a file relative to it, and so does stdout
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("seastar-train %v: %v\n%s", args, err, stderr.Bytes())
		}
		return out
	}

	stdout := run("-model", "gat", "-dataset", "cora", "-scale", "0.05", "-epochs", "2",
		"-gpu", "1080Ti", "-trace", "trace.json")
	trace, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fullgraph.stdout", stdout)
	golden(t, "fullgraph.trace.json", trace)

	epochLine := regexp.MustCompile(`(?m)^epoch .*\n`)
	wall := regexp.MustCompile(`wall [0-9.]+ ms`)
	var epochs []byte
	for _, line := range epochLine.FindAll(run("-minibatch", "-epochs", "2"), -1) {
		epochs = append(epochs, wall.ReplaceAll(line, []byte("wall <masked>"))...)
	}
	golden(t, "minibatch.epochs", epochs)
}

// golden compares got with testdata/name, or rewrites it under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run go test -run %s -update): %v", path, t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
