package difftest

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"fastliveness/internal/backend"
	"fastliveness/internal/cfg"
	"fastliveness/internal/dataflow"
	"fastliveness/internal/dom"
	"fastliveness/internal/graphgen"
	"fastliveness/internal/ir"
	"fastliveness/internal/regalloc"
	"fastliveness/internal/ssa"
)

// The acceptance criterion of the backend layer: every registered backend
// answers every query identically to the data-flow ground truth on ≥ 100
// random functions, reducible and irreducible alike.
func TestAllBackendsAgreeOnRandomCorpus(t *testing.T) {
	funcs := Corpus(120, 20260730)
	if err := ValidateAll(funcs); err != nil {
		t.Fatal(err)
	}
}

// The checker's storage representations — arena vs sorted-array T sets,
// fresh vs cached use reads, both precompute strategies — must answer
// identically to the ground truth, through both query handle kinds,
// before and after a cache-flushing ResetSets.
func TestCheckerStorageConfigsAgree(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 16
	}
	for _, f := range Corpus(n, 20260731) {
		if err := ValidateCheckerStorage(f); err != nil {
			t.Fatal(err)
		}
	}
}

// The corpus must genuinely exercise both CFG classes and be strict SSA —
// otherwise the agreement test above proves less than it claims.
func TestCorpusShape(t *testing.T) {
	funcs := Corpus(120, 20260730)
	if len(funcs) < 100 {
		t.Fatalf("corpus has %d functions, want >= 100", len(funcs))
	}
	reducible, irreducible := 0, 0
	for _, f := range funcs {
		if err := ssa.VerifyStrict(f); err != nil {
			t.Fatalf("%s: not strict SSA: %v", f.Name, err)
		}
		p, err := backend.Prepare(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if p.Reducible() {
			reducible++
		} else {
			irreducible++
		}
	}
	if reducible < 10 || irreducible < 10 {
		t.Fatalf("corpus mix too thin: %d reducible, %d irreducible", reducible, irreducible)
	}
}

func TestFromGraphMirrorsGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		g := graphgen.Random(rng, graphgen.Default)
		f := FromGraph(rng, g, "mirror")
		if err := ssa.VerifyStrict(f); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(f.Blocks) != g.N() {
			t.Fatalf("trial %d: %d blocks, graph has %d nodes", trial, len(f.Blocks), g.N())
		}
		for i, b := range f.Blocks {
			if len(b.Succs) != len(g.Succs[i]) {
				t.Fatalf("trial %d: block %d has %d successors, node has %d",
					trial, i, len(b.Succs), len(g.Succs[i]))
			}
			for j, e := range b.Succs {
				if e.B != f.Blocks[g.Succs[i][j]] {
					t.Fatalf("trial %d: edge %d->%d mismatches graph", trial, i, j)
				}
			}
		}
	}
}

// liar wraps a correct Result but negates one live-in answer; compare must
// report it as a Mismatch rather than letting it through.
type liar struct {
	backend.Result
	v *ir.Value
	b *ir.Block
}

func (l liar) IsLiveIn(v *ir.Value, b *ir.Block) bool {
	if v == l.v && b == l.b {
		return !l.Result.IsLiveIn(v, b)
	}
	return l.Result.IsLiveIn(v, b)
}

func TestCompareCatchesDisagreement(t *testing.T) {
	funcs := Corpus(4, 99)
	f := funcs[0]
	b, err := backend.Get(GroundTruth)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	var target *ir.Value
	f.Values(func(v *ir.Value) {
		if target == nil && v.Op.HasResult() {
			target = v
		}
	})
	err = compare("liar", f, liar{Result: res, v: target, b: f.Blocks[0]}, dataflow.Analyze(f))
	var m *Mismatch
	if !errors.As(err, &m) {
		t.Fatalf("compare accepted a lying backend: %v", err)
	}
	if m.Backend != "liar" || !strings.Contains(m.Error(), "ground truth") {
		t.Fatalf("unhelpful mismatch: %v", m)
	}
}

// Per-block live-set sizes — register pressure — must agree with the
// ground truth for every set-producing backend, and the oracle-driven
// pressure walk must report identical profiles through every backend.
func TestPressureAgreesAcrossBackends(t *testing.T) {
	n := 48
	if testing.Short() {
		n = 12
	}
	for _, f := range Corpus(n, 20260802) {
		if err := ValidatePressure(f); err != nil {
			t.Fatal(err)
		}
	}
}

// The corpus must actually contain the pressure-biased functions the
// regalloc subsystem relies on: some functions must be markedly denser
// than the sparse calibrated default.
func TestCorpusIncludesHighPressureFunctions(t *testing.T) {
	funcs := Corpus(64, 20260730)
	maxP := 0
	for _, f := range funcs {
		p := regalloc.MeasurePressure(f, dataflow.Analyze(f))
		if p.Max > maxP {
			maxP = p.Max
		}
	}
	if maxP < 12 {
		t.Fatalf("densest corpus function has max pressure %d, want >= 12 (pressure bias missing?)", maxP)
	}
}

// The lemma the register allocator's pruning rests on: in strict SSA a
// value's live range is a subtree of the dominator tree rooted at its
// definition. For every result-defining v and reachable block b other than
// v's defining block, ground truth must satisfy
//
//	IsLiveIn(v, b) ∧ idom(b) ≠ def(v) ⇒ IsLiveIn(v, idom(b))
//	IsLiveOut(v, b)                  ⇒ IsLiveOut(v, idom(b))
//
// so regalloc.Scan may ask about idom(b)'s live-in and defined values only,
// and MeasurePressure may skip the subtree of a block a value is dead at
// the end of. Irreducible functions are included on purpose: the lemma
// needs strictness, not reducibility.
func TestLiveRangeIsDominatorSubtree(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	pairs, irreducible := 0, 0
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, f := range Corpus(n, seed) {
			g, index := cfg.FromFunc(f)
			d := cfg.NewDFS(g)
			tree := dom.Iterative(g, d)
			if !dom.IsReducible(d, tree) {
				irreducible++
			}
			truth := dataflow.Analyze(f)
			f.Values(func(v *ir.Value) {
				if !v.Op.HasResult() {
					return
				}
				def := index[v.Block.ID]
				for node, b := range f.Blocks {
					p := tree.Idom[node]
					if node == def || p < 0 {
						continue // v's own block, the entry, or unreachable
					}
					pairs++
					idom := f.Blocks[p]
					if truth.IsLiveIn(v, b) && p != def && !truth.IsLiveIn(v, idom) {
						t.Fatalf("%s (seed %d): %s live-in at %s but not at its idom %s", f.Name, seed, v, b, idom)
					}
					if truth.IsLiveOut(v, b) && !truth.IsLiveOut(v, idom) {
						t.Fatalf("%s (seed %d): %s live-out at %s but not at its idom %s", f.Name, seed, v, b, idom)
					}
				}
			})
		}
	}
	if irreducible == 0 {
		t.Fatal("corpus held no irreducible function; the lemma was not tested where it matters")
	}
	t.Logf("%d (value, block) pairs, %d irreducible functions", pairs, irreducible)
}
