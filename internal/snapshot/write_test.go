package snapshot_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fastliveness/internal/backend"
	"fastliveness/internal/backend/difftest"
	"fastliveness/internal/cfg"
	"fastliveness/internal/core"
	"fastliveness/internal/graphgen"
	"fastliveness/internal/ir"
	"fastliveness/internal/loops"
	"fastliveness/internal/snapshot"
)

// captureFunc builds a fresh checker for f and captures it.
func captureFunc(t testing.TB, f *ir.Func) (*snapshot.Snapshot, *backend.Prep) {
	t.Helper()
	p, err := backend.Prepare(f)
	if err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.Capture(p, backend.NewCheckerResult(p, core.Options{}).Checker())
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

// chain is a straight line of n blocks: no back edges at all.
func chain(n int) *cfg.Graph {
	g := cfg.NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// The file Save writes is byte for byte what Encode returns, and both the
// file and the store's load of it decode back to the same encoding — on
// the aliasing decode path and on the forced copying one.
func TestSaveMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	funcs := append(difftest.Corpus(12, 43),
		difftest.FromGraph(rng, chain(9), "chain"),
		difftest.FromGraph(rng, chain(1), "single"))
	var irreducible, noBackEdges, singleBlock bool
	t.Cleanup(func() { snapshot.SetForceCopyDecode(false) })
	for _, force := range []bool{false, true} {
		snapshot.SetForceCopyDecode(force)
		st, err := snapshot.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range funcs {
			s, p := captureFunc(t, f)
			for _, l := range loops.Build(p.Graph, p.DFS).Loops {
				irreducible = irreducible || l.Irreducible
			}
			noBackEdges = noBackEdges || len(p.DFS.BackEdges) == 0 && s.NBlocks > 1
			singleBlock = singleBlock || s.NBlocks == 1

			want, err := s.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(want)) != s.SizeBytes() {
				t.Fatalf("%s: Encode returned %d bytes, SizeBytes says %d", f.Name, len(want), s.SizeBytes())
			}
			if err := st.Save(s); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(st.Dir(), fpName(s.FP)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s (force copy %v): saved file differs from Encode's bytes", f.Name, force)
			}
			decoded, err := snapshot.Decode(got)
			if err != nil {
				t.Fatalf("%s (force copy %v): decode saved file: %v", f.Name, force, err)
			}
			loaded, err := st.Load(s.FP)
			if err != nil {
				t.Fatalf("%s (force copy %v): load: %v", f.Name, force, err)
			}
			for _, rt := range []*snapshot.Snapshot{decoded, loaded} {
				again, err := rt.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, want) {
					t.Fatalf("%s (force copy %v): re-encoding a decoded snapshot changed its bytes", f.Name, force)
				}
			}
		}
	}
	if !irreducible || !noBackEdges || !singleBlock {
		t.Fatalf("corpus lacks a shape: irreducible %v, no back edges %v, single block %v",
			irreducible, noBackEdges, singleBlock)
	}
}

// Save streams the R and T arenas from the snapshot's own words, so it
// allocates only the O(n+e) head buffer, never a copy of the file. The
// head is about 140 bytes per block against n²/4 bytes of arenas, so the
// bound below separates the two only for functions of more than about
// 4,500 blocks; at 8,192 the head is under 7% of the file.
func TestSaveAllocatesNoFileCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, _ := captureFunc(t, difftest.FromGraph(rng, graphgen.Ladder(8192), "ladder"))
	st, err := snapshot.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	if size := s.SizeBytes(); alloc >= uint64(size/8) {
		t.Fatalf("Save of a %d-byte snapshot allocated %d bytes, want < %d", size, alloc, size/8)
	}
}

// failingWriter fails its nth Write call.
type failingWriter struct {
	n, calls int
	err      error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls == w.n {
		return 0, w.err
	}
	return len(p), nil
}

// A failure on any of WriteTo's three writes (head, R, T) is returned as
// is, and nothing more is written after it.
func TestWriteToReturnsWriteError(t *testing.T) {
	s := captureOne(t, 5, 21)
	for n := 1; n <= 3; n++ {
		w := &failingWriter{n: n, err: errors.New("disk gone")}
		if _, err := s.WriteTo(w); err != w.err {
			t.Fatalf("failing write %d: WriteTo returned %v, want %v", n, err, w.err)
		}
		if w.calls != n {
			t.Fatalf("failing write %d: WriteTo wrote %d times", n, w.calls)
		}
	}
	if _, err := s.WriteTo(&failingWriter{}); err != nil {
		t.Fatalf("WriteTo to a healthy writer: %v", err)
	}
}
