package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/store"
)

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
