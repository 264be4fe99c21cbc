package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestShardedMatchesSingleProcess is the binary's black-box check: for gcn
// and gat on cora, two -shard-index workers behind a -coordinator, all on
// loopback, answer /v1/infer with exactly the bytes a single-process
// server answers.
func TestShardedMatchesSingleProcess(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the binary with")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	bin := filepath.Join(t.TempDir(), "seastar-serve")
	if out, err := exec.CommandContext(ctx, goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Every process of both models starts at once; each is stopped (and
	// waited for) when the test ends.
	var wg sync.WaitGroup
	start := func(args ...string) string {
		addr := freeAddr(t)
		cmd := exec.CommandContext(ctx, bin, append(args, "-dataset", "cora", "-addr", addr)...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
			if t.Failed() {
				t.Logf("%s:\n%s", strings.Join(args, " "), out.String())
			}
		})
		return "http://" + addr
	}
	type deployment struct{ single, front string }
	deployments := map[string]deployment{}
	for _, model := range []string{"gcn", "gat"} {
		workers := []string{
			start("-model", model, "-shard-index", "0", "-shard-count", "2"),
			start("-model", model, "-shard-index", "1", "-shard-count", "2"),
		}
		deployments[model] = deployment{
			single: start("-model", model),
			front:  start("-model", model, "-coordinator", "-shard-workers", strings.Join(workers, ",")),
		}
		for _, url := range append(workers, deployments[model].single, deployments[model].front) {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				waitHealthy(t, ctx, url)
			}(url)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	body := `{"nodes":[0,1,2,7,42,99,512,1024,2048,2700]}`
	for model, d := range deployments {
		want := infer(t, d.single, body)
		got := infer(t, d.front, body)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the coordinator answered\n%s\nthe single process\n%s", model, got, want)
		}
	}
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// waitHealthy polls url's /healthz until it answers 200 or ctx ends.
func waitHealthy(t *testing.T, ctx context.Context, url string) {
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		select {
		case <-ctx.Done():
			t.Errorf("%s never became healthy", url)
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// infer posts body to url's /v1/infer and returns the 200 reply's bytes.
func infer(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/v1/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatal(fmt.Errorf("%s: %s: %s", url, resp.Status, data))
	}
	return data
}
