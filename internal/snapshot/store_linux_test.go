package snapshot_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fastliveness/internal/faults"
	"fastliveness/internal/snapshot"
)

// Two Loads of one fingerprint that both miss the decoded cache both map
// the file; the one that loses the race for the cache slot unmaps its
// copy, so the process keeps a single mapping, and both callers get the
// winner's snapshot.
func TestStoreConcurrentLoadUnmapsLoser(t *testing.T) {
	st, err := snapshot.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := captureOne(t, 4, 27)
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	in := faults.New(1)
	// The delay fires after the cache check, so both loaders miss it.
	in.Add(faults.Rule{Site: snapshot.FaultSiteLoad, Action: faults.ActionDelay, Delay: 200 * time.Millisecond})
	st.SetFaultInjector(in)

	var got [2]*snapshot.Snapshot
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = st.Load(s.FP)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got[0] != got[1] {
		t.Fatal("concurrent loads returned different snapshots")
	}
	if m := st.Stats().DecodedCacheMisses; m != 2 {
		t.Fatalf("%d loads missed the decoded cache, want both", m)
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), fpName(s.FP))
	mappings := 0
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.HasSuffix(line, " "+path) {
			mappings++
		}
	}
	if mappings != 1 {
		t.Fatalf("%s is mapped %d times, want once", path, mappings)
	}
}

// A Save whose file write fails — at the head, the R arena or the T arena
// — returns the error and leaves neither a temp file nor a final file.
// The failure is a real EFBIG from a lowered file-size limit (the Go
// runtime does not die of SIGXFSZ).
func TestStoreSaveWriteFailureLeavesNoFile(t *testing.T) {
	s := captureOne(t, 6, 29)
	arena := int64(8 * len(s.RWords))
	head := s.SizeBytes() - 2*arena
	if head <= 0 || arena == 0 {
		t.Fatalf("snapshot too small to fail at each write (head %d, arena %d)", head, arena)
	}
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	defer syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old)
	for _, limit := range []int64{head / 2, head + arena/2, head + arena + arena/2} {
		dir := t.TempDir()
		st, err := snapshot.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: uint64(limit), Max: old.Max}); err != nil {
			t.Fatal(err)
		}
		err = st.Save(s)
		if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); rerr != nil {
			t.Fatal(rerr)
		}
		if !errors.Is(err, syscall.EFBIG) {
			t.Fatalf("Save under a %d-byte file limit returned %v, want EFBIG", limit, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			t.Errorf("failed Save under a %d-byte file limit left %s", limit, e.Name())
		}
	}
}
