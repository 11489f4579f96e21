//go:build unix

package core

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"syscall"
	"testing"

	"repro/internal/store"
)

// crashStoreDirEnv carries the store directory to the child process of
// TestStoreResumeAfterSIGKILL; its presence selects the child's role.
const crashStoreDirEnv = "CORE_CRASH_STORE_DIR"

// TestStoreResumeAfterSIGKILL is the crash-recovery contract of the flow
// cache's disk tier across a real process death. The test binary
// re-executes itself as a child that builds against a store directory
// and SIGKILLs itself right after the store's second put: two flow runs
// are on disk, the rest of the sweep is not. Workers is pinned to 1 so
// the puts arrive in a fixed order. The parent then rebuilds with a new
// store handle and a fresh memory cache on the same directory. The rerun
// must serve at least the two stored runs from disk, so it recomputes
// fewer flows than the build has, produce a dataset byte-identical to a
// build without a store, and leave no entry that fails verification.
func TestStoreResumeAfterSIGKILL(t *testing.T) {
	if dir := os.Getenv(crashStoreDirEnv); dir != "" {
		s := openTestStore(t, dir, store.Options{PutHook: func(puts int) {
			if puts >= 2 {
				// A real crash, not an exit: no deferred cleanup, no
				// flushes. The next Open must recover on its own.
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}})
		diskTierBuild(t, s, 1)
		return // reached only if the hook did not kill; the parent fails
	}

	dir := t.TempDir()
	child := exec.Command(os.Args[0], "-test.run=^TestStoreResumeAfterSIGKILL$")
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
	s := openTestStore(t, dir, store.Options{})
	ds, _, sum := diskTierBuild(t, s, 1)
	st := s.Stats()
	if st.Hits < 2 || int(st.Puts) > sum.FlowRuns-2 {
		t.Errorf("resume of %d flow runs: %v; want at least 2 hits and at most %d recomputed",
			sum.FlowRuns, st, sum.FlowRuns-2)
	}
	if !bytes.Equal(store.EncodeDataset(dsRef), store.EncodeDataset(ds)) {
		t.Error("resumed dataset is not byte-identical to the build without a store")
	}
	if ok, quarantined := s.VerifyAll(); quarantined != 0 {
		t.Errorf("store verification quarantined %d entries (%d ok)", quarantined, ok)
	}
}
