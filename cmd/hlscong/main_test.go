package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/store"
)

// runMainEnv, when set, makes the test binary run hlscong itself on its
// command line instead of the tests, so a test can check flag handling and
// exit codes in a child process.
const runMainEnv = "HLSCONG_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

// TestStoreDirNeedsFlowCache: the store is the flow cache's disk tier, so
// -store-dir with the cache off (-flowcache 0) would persist nothing.
// hlscong refuses the pair with exit 2 before it opens the store.
func TestStoreDirNeedsFlowCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	child := exec.Command(os.Args[0], "-flowcache", "0", "-store-dir", dir, "build")
	child.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := child.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("hlscong -flowcache 0 -store-dir D build: err %v, want exit 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "-store-dir needs the flow cache") {
		t.Errorf("exit 2 without naming the conflict:\n%s", out)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the refused run touched the store directory (stat: %v)", err)
	}
}

// TestRunBuildCancelledKeepsOut: a build cancelled before it finishes
// fails and leaves the artifact already at -out byte for byte.
func TestRunBuildCancelledKeepsOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ds.art")
	good := []byte("a good artifact from an earlier build")
	if err := os.WriteFile(out, good, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := experiments.DefaultConfig()
	cfg.Ctx = ctx
	err := runBuild(ctx, cfg, buildFlags{modules: "optical_flow", labelRuns: 1, out: out})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v, want context.Canceled", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, good) {
		t.Fatalf("cancelled build rewrote -out (%d bytes)", len(got))
	}
}

// TestRunBuildWritesOut: a finished build replaces -out with a decodable
// artifact and leaves no temp file beside it.
func TestRunBuildWritesOut(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ds.art")
	if err := os.WriteFile(out, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := experiments.DefaultConfig()
	cfg.Ctx = ctx
	if err := runBuild(ctx, cfg, buildFlags{modules: "optical_flow", labelRuns: 1, out: out}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := store.DecodeDataset(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 {
		t.Fatal("build wrote an empty dataset")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries in the artifact's directory, want only ds.art", len(entries))
	}
}

// TestNewObserverRecordsWithDebugAddr: the observer behind -debug-addr
// carries a flight recorder, so /debug/metrics/history has samples.
func TestNewObserverRecordsWithDebugAddr(t *testing.T) {
	o, err := newObserver("", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if o.Rec == nil {
		t.Fatal("observer built for -debug-addr has no recorder")
	}
	if o, err = newObserver("", ""); err != nil {
		t.Fatal(err)
	}
	if o.Rec != nil {
		t.Fatal("observer built without -debug-addr has a recorder")
	}
	if _, err := newObserver("loud", ""); err == nil {
		t.Fatal("newObserver accepted log level \"loud\"")
	}
}
