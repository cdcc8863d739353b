package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"

	"fastliveness"
	"fastliveness/internal/core"
	"fastliveness/internal/gen"
	"fastliveness/internal/ir"
	"fastliveness/internal/snapshot"
	"fastliveness/internal/ssa"
)

// procRef names one procedure of the SPEC2000-calibrated corpus.
type procRef struct {
	spec, idx int
	blocks    int // the generator's block target
}

// specPool lists the corpus procedures whose block target is at most
// maxBlocks, ordered by block target.
func specPool(maxBlocks int) []procRef {
	var pool []procRef
	for si := range gen.SPEC2000 {
		s := &gen.SPEC2000[si]
		for i := 0; i < s.Procs; i++ {
			if c := s.ProcConfig(i); c.TargetBlocks <= maxBlocks {
				pool = append(pool, procRef{si, i, c.TargetBlocks})
			}
		}
	}
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].blocks < pool[j].blocks })
	return pool
}

// stratifiedDraw draws n procedures from pool, which is ordered by size:
// the pool is cut into n strata of (nearly) equal count and one procedure
// is drawn uniformly from each. Every procedure is equally likely to be
// drawn, and every draw covers the size distribution, heavy tail
// included, in the same proportions.
func stratifiedDraw(pool []procRef, n int, rng *rand.Rand) []procRef {
	if n > len(pool) {
		n = len(pool)
	}
	out := make([]procRef, n)
	for k := range out {
		lo, hi := k*len(pool)/n, (k+1)*len(pool)/n
		out[k] = pool[lo+rng.Intn(hi-lo)]
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// generateSpec builds the drawn procedures in slot form.
func generateSpec(refs []procRef) []*ir.Func {
	funcs := make([]*ir.Func, len(refs))
	for i, r := range refs {
		funcs[i] = gen.SPEC2000[r.spec].GenerateProc(r.idx)
	}
	return funcs
}

// warmProgram builds the restart workload's program: large loopy functions
// at fixed block targets, every third irreducible, in SSA form. The seed
// changes each function's structure, not its size: the generator's block
// count is approximate, so a function that falls more than 3% short of
// its target is generated again from the next sub-seed, and every seed's
// program has the same shape.
func warmProgram(seed int64, targets []int) []*ir.Func {
	funcs := make([]*ir.Func, len(targets))
	for i, n := range targets {
		var f *ir.Func
		for attempt := int64(0); attempt < 10; attempt++ {
			c := gen.Default(seed*1000003 + int64(i)*6151 + attempt*7919)
			c.TargetBlocks = n
			c.MaxDepth = 9
			c.Irreducible = i%3 == 0
			f = gen.Generate(fmt.Sprintf("w%04d", i), c)
			if 100*len(f.Blocks) >= 97*n {
				break
			}
		}
		ssa.Construct(f)
		funcs[i] = f
	}
	return funcs
}

// cloneAll deep-copies a corpus so a run can edit it in place.
func cloneAll(funcs []*ir.Func) []*ir.Func {
	out := make([]*ir.Func, len(funcs))
	for i, f := range funcs {
		out[i] = ir.Clone(f)
	}
	return out
}

// printHash is the SHA-256 of a function's printed IR.
func printHash(f *ir.Func) [32]byte { return sha256.Sum256([]byte(ir.Print(f))) }

// identity describes an input corpus: its shape and a hash of its printed
// IR, so a change to the generator or to SSA construction shows up as a
// different input rather than as a speed change.
func identity(funcs []*ir.Func) string { return identityOf(funcs, printAll(funcs)) }

// identityOf is identity for a corpus already printed as texts.
func identityOf(funcs []*ir.Func, texts []string) string {
	h := sha256.New()
	blocks, values := 0, 0
	for i, f := range funcs {
		blocks += len(f.Blocks)
		f.Values(func(*ir.Value) { values++ })
		h.Write([]byte(texts[i]))
	}
	return fmt.Sprintf("funcs=%d blocks=%d values=%d ir_sha256=%s",
		len(funcs), blocks, values, hex.EncodeToString(h.Sum(nil))[:16])
}

func printAll(funcs []*ir.Func) []string {
	out := make([]string, len(funcs))
	for i, f := range funcs {
		out[i] = ir.Print(f)
	}
	return out
}

// distinctShapes counts the distinct CFG fingerprints among funcs:
// functions of one shape share one snapshot file.
func distinctShapes(funcs []*ir.Func) int {
	flags := snapshot.FlagsFor(core.Options{})
	seen := make(map[uint64]bool)
	for _, f := range funcs {
		fp, _ := snapshot.FingerprintFunc(f, flags)
		seen[fp] = true
	}
	return len(seen)
}

// queriesFor draws n liveness questions about f: a result-defining value
// and a block, both uniform.
func queriesFor(f *ir.Func, n int, rng *rand.Rand) []fastliveness.Query {
	var vals []*ir.Value
	f.Values(func(v *ir.Value) {
		if v.Op.HasResult() {
			vals = append(vals, v)
		}
	})
	qs := make([]fastliveness.Query, n)
	for i := range qs {
		qs[i] = fastliveness.Query{V: vals[rng.Intn(len(vals))], B: f.Blocks[rng.Intn(len(f.Blocks))]}
	}
	return qs
}
