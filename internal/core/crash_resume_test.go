//go:build unix

package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"syscall"
	"testing"

	"repro/internal/dataset"
	"repro/internal/flow"
	"repro/internal/flowcache"
	"repro/internal/store"
)

// crashStoreDirEnv carries the store directory to the child process of
// TestCheckpointResumeAfterSIGKILL; its presence selects the child's role.
const crashStoreDirEnv = "CORE_CRASH_STORE_DIR"

// storeBuild runs a build with s as both the flow cache's disk tier and
// the checkpoint. Workers is pinned to 1 so the store's puts arrive in a
// fixed order and a put count names a fixed point of the sweep.
func storeBuild(t *testing.T, s *store.Store) (*dataset.Dataset, *BuildSummary) {
	t.Helper()
	cfg := quickFlow()
	cache := flowcache.New(0)
	cache.AttachStore(s)
	cfg.Cache = cache
	ds, _, sum, err := BuildDatasetContext(context.Background(), tinyModules(), cfg, BuildOptions{
		LabelRuns:  2,
		Retry:      flow.RetryPolicy{MaxAttempts: 2, SeedStride: 104729},
		Workers:    1,
		Checkpoint: store.NewCheckpoint(s),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, sum
}

// TestCheckpointResumeAfterSIGKILL is the crash-recovery contract across a
// real process death. The test binary re-executes itself as a child that
// builds against a store directory and SIGKILLs itself right after the
// store's second put: the first module's flow results are on disk, its
// module block is not. The parent then resumes against the same directory.
// The resume must restore fewer modules than the build has, draw on the
// store, produce a dataset byte-identical to an uncheckpointed build, and
// leave no entry that fails verification.
func TestCheckpointResumeAfterSIGKILL(t *testing.T) {
	if dir := os.Getenv(crashStoreDirEnv); dir != "" {
		s, err := store.Open(dir, store.Options{PutHook: func(puts int) {
			if puts >= 2 {
				// A real crash, not an exit: no deferred cleanup, no
				// flushes. The next Open must recover on its own.
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		storeBuild(t, s)
		return // reached only if the hook did not kill; the parent fails
	}

	dir := t.TempDir()
	child := exec.Command(os.Args[0], "-test.run=^TestCheckpointResumeAfterSIGKILL$")
	child.Env = append(os.Environ(), crashStoreDirEnv+"="+dir)
	out, err := child.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("child build was not killed mid-sweep (err %v)\n%s", err, out)
	}
	if ws, ok := exit.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("child died by %v, want SIGKILL\n%s", exit, out)
	}

	dsRef, _, _ := cacheBuild(t, nil, 1)
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, sum := storeBuild(t, s)
	if sum.Restored >= sum.Modules {
		t.Errorf("resume restored %d of %d modules; the kill did not land mid-sweep", sum.Restored, sum.Modules)
	}
	if !bytes.Equal(store.EncodeDataset(dsRef), store.EncodeDataset(ds)) {
		t.Error("resumed dataset is not byte-identical to the uncheckpointed reference")
	}
	if st := s.Stats(); st.Hits == 0 {
		t.Errorf("resume never hit the store: %+v", st)
	}
	if ok, quarantined := s.VerifyAll(); quarantined != 0 {
		t.Errorf("store verification quarantined %d entries (%d ok)", quarantined, ok)
	}
}
