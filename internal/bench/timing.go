package bench

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"fastliveness"
	"fastliveness/internal/cfg"
	"fastliveness/internal/core"
	"fastliveness/internal/dataflow"
	"fastliveness/internal/destruct"
	"fastliveness/internal/dom"
	"fastliveness/internal/gen"
	"fastliveness/internal/ir"
	"fastliveness/internal/lao"
	"fastliveness/internal/ssa"
)

// Query is one liveness question from the SSA-destruction workload,
// expressed against the pre-destruction function.
type Query struct {
	V *ir.Value
	B *ir.Block
}

// recordingOracle answers destruction queries from a data-flow analysis of
// the clone and records them.
type recordingOracle struct {
	r       *dataflow.Result
	maxID   int // values with IDs >= maxID are destruction-inserted copies
	queries []Query
}

func (o *recordingOracle) IsLiveOut(v *ir.Value, b *ir.Block) bool {
	if v.ID < o.maxID {
		o.queries = append(o.queries, Query{V: v, B: b})
	}
	return o.r.IsLiveOut(v, b)
}

// RecordQueries runs SSA destruction on a clone of p.F and returns the
// liveness queries it issued, mapped back onto p.F. Queries about
// destruction-inserted copies (which do not exist in p.F) are dropped; they
// are a small fraction of the stream.
func RecordQueries(p Proc) []Query {
	f := p.F
	clone := ir.Clone(f)
	o := &recordingOracle{r: dataflow.Analyze(clone), maxID: f.NumValues()}
	destruct.Run(clone, o, destruct.ModeCoalesce)

	// Map clone values/blocks back by ID (Clone preserves IDs).
	valByID := make([]*ir.Value, f.NumValues())
	f.Values(func(v *ir.Value) { valByID[v.ID] = v })
	blockByID := make([]*ir.Block, f.NumBlocks())
	for _, b := range f.Blocks {
		blockByID[b.ID] = b
	}
	out := make([]Query, len(o.queries))
	for i, q := range o.queries {
		out[i] = Query{V: valByID[q.V.ID], B: blockByID[q.B.ID]}
	}
	return out
}

// timeOp measures ns per op with adaptive repetition, after one untimed
// warmup call.
func timeOp(budget time.Duration, op func()) float64 {
	op()
	return timeLoop(budget, op)
}

// timeLoop is timeOp without the warmup call.
func timeLoop(budget time.Duration, op func()) float64 {
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			op()
		}
		elapsed := time.Since(start)
		if elapsed >= budget || reps >= 1<<22 {
			return float64(elapsed.Nanoseconds()) / float64(reps)
		}
		if elapsed <= 0 {
			reps *= 16
			continue
		}
		reps *= 4
	}
}

// ProcTiming is the Table 2 measurement for one procedure.
type ProcTiming struct {
	Queries   int
	NativePre float64 // ns per precomputation
	NewPre    float64
	NativeQ   float64 // ns per query
	NewQ      float64
}

// perProcBudget keeps full-corpus runs tractable; raise for more stable
// numbers.
const perProcBudget = 400 * time.Microsecond

// pairRounds is how many interleaved rounds timePair runs per side.
const pairRounds = 5

// timePair measures ns per op of a and b as pairRounds paired, interleaved
// rounds after one warmup call each, keeping each side's fastest round.
// Interleaving puts both sides under the same machine load, and min-of-k
// drops the rounds a burst of competing work (other test packages running
// in parallel, say) slowed down, so the a/b ratio holds where two
// back-to-back single passes can land on opposite sides of a burst. The
// budget is split across the rounds, so for ops well under the budget the
// cost stays about that of one timeOp per side.
func timePair(budget time.Duration, a, b func()) (nsA, nsB float64) {
	a()
	b()
	nsA, nsB = math.Inf(1), math.Inf(1)
	for k := 0; k < pairRounds; k++ {
		nsA = min(nsA, timeLoop(budget/pairRounds, a))
		nsB = min(nsB, timeLoop(budget/pairRounds, b))
	}
	return nsA, nsB
}

// MeasureProc times both liveness approaches on one procedure: the
// precomputation (LAO-style data-flow over φ-related variables vs. the
// checker's R/T sets) and the SSA-destruction query stream (sorted-array
// lookups vs. Algorithm 3).
//
// Per the paper's prerequisites (§1), the DFS and the dominator tree are
// considered available compiler infrastructure, so the "New" precomputation
// covers exactly the R/T construction, while the "Native" precomputation
// covers LAO's whole φ-related data-flow solve. Both the precomputations
// and the two query streams are timed as paired, interleaved rounds
// (timePair), because their ratios are the paper's result.
func MeasureProc(p Proc) ProcTiming {
	f := p.F
	queries := RecordQueries(p)

	var t ProcTiming
	t.Queries = len(queries)
	g, _ := cfg.FromFunc(f)
	d := cfg.NewDFS(g)
	tree := dom.Iterative(g, d)
	t.NativePre, t.NewPre = timePair(perProcBudget, func() {
		lao.Analyze(f, lao.Options{PhiRelatedOnly: true})
	}, func() {
		core.NewFrom(g, d, tree, core.Options{})
	})
	if len(queries) == 0 {
		return t
	}

	native := lao.Analyze(f, lao.Options{PhiRelatedOnly: true})
	checker, err := fastliveness.Analyze(f, fastliveness.Config{})
	if err != nil {
		panic(err)
	}
	nativeStream, newStream := timePair(perProcBudget, func() {
		for _, q := range queries {
			native.IsLiveOut(q.V, q.B)
		}
	}, func() {
		for _, q := range queries {
			checker.IsLiveOut(q.V, q.B)
		}
	})
	t.NativeQ = nativeStream / float64(len(queries))
	t.NewQ = newStream / float64(len(queries))
	return t
}

// Row aggregates a corpus for Table 2.
type Row struct {
	Name      string
	Procs     int
	NativePre float64 // avg ns per proc
	NewPre    float64
	Queries   int
	NativeQ   float64 // avg ns per query
	NewQ      float64
}

// Speedups returns (precompute, query, both) speedups, paper-style: the
// "both" column weighs precomputation per procedure and query cost per
// query.
func (r Row) Speedups() (pre, query, both float64) {
	pre = r.NativePre / r.NewPre
	if r.NewQ > 0 {
		query = r.NativeQ / r.NewQ
	}
	nativeTotal := float64(r.Procs)*r.NativePre + float64(r.Queries)*r.NativeQ
	newTotal := float64(r.Procs)*r.NewPre + float64(r.Queries)*r.NewQ
	if newTotal > 0 {
		both = nativeTotal / newTotal
	}
	return
}

// MeasureCorpus runs MeasureProc over the corpus and aggregates.
func MeasureCorpus(c *Corpus) Row {
	row := Row{Name: c.Spec.Name, Procs: len(c.Procs)}
	var preN, preF, qN, qF float64
	for _, p := range c.Procs {
		t := MeasureProc(p)
		preN += t.NativePre
		preF += t.NewPre
		qN += t.NativeQ * float64(t.Queries)
		qF += t.NewQ * float64(t.Queries)
		row.Queries += t.Queries
	}
	row.NativePre = preN / float64(row.Procs)
	row.NewPre = preF / float64(row.Procs)
	if row.Queries > 0 {
		row.NativeQ = qN / float64(row.Queries)
		row.NewQ = qF / float64(row.Queries)
	}
	return row
}

// paperTable2 carries the paper's Table 2 reference values
// (cycles; the speedup ratios are what our reproduction should match).
var paperTable2 = map[string]struct {
	procs                     int
	nativePre, newPre, preSpd float64
	queries                   int
	nativeQ, newQ, qSpd, both float64
}{
	"164.gzip":   {82, 174000.82, 55054.62, 3.12, 90659, 86.84, 162.23, 0.53, 1.16},
	"175.vpr":    {225, 116963.18, 54291.50, 2.17, 55670, 85.71, 179.38, 0.48, 1.41},
	"176.gcc":    {2019, 205923.64, 67310.79, 3.03, 1109202, 88.17, 339.54, 0.26, 1.00},
	"181.mcf":    {26, 65544.73, 35696.62, 1.85, 2369, 84.09, 190.37, 0.44, 1.39},
	"186.crafty": {109, 437037.94, 156418.57, 2.78, 858121, 81.07, 166.14, 0.49, 0.73},
	"197.parser": {323, 85194.79, 40392.45, 2.13, 38719, 86.54, 177.81, 0.49, 1.54},
	"254.gap":    {852, 191000.39, 55515.27, 3.45, 245540, 87.38, 168.82, 0.52, 2.08},
	"255.vortex": {923, 71444.18, 42651.30, 1.67, 88554, 85.09, 187.21, 0.45, 1.32},
	"256.bzip2":  {74, 137544.10, 40178.87, 3.45, 10100, 95.00, 184.86, 0.51, 2.32},
	"300.twolf":  {190, 446186.87, 94197.44, 4.76, 184621, 94.89, 193.81, 0.49, 1.92},
	"Total":      {4823, 177655.50, 60375.69, 2.94, 2683555, 86.09, 241.06, 0.36, 1.16},
}

// Table2 renders the runtime experiment in the paper's Table 2 layout.
// Measured rows are in nanoseconds; paper rows are in cycles (714 ns per
// 1000 cycles on their 1.4 GHz Pentium M) — the comparable columns are the
// three speedups.
func Table2(corpora []*Corpus) string {
	t := NewTable2Formatter()
	var total Row
	var totalPreN, totalPreF float64
	for _, c := range corpora {
		row := MeasureCorpus(c)
		t.add(row)
		totalPreN += row.NativePre * float64(row.Procs)
		totalPreF += row.NewPre * float64(row.Procs)
		total.Procs += row.Procs
		total.Queries += row.Queries
		total.NativeQ += row.NativeQ * float64(row.Queries)
		total.NewQ += row.NewQ * float64(row.Queries)
	}
	total.Name = "Total"
	total.NativePre = totalPreN / float64(total.Procs)
	total.NewPre = totalPreF / float64(total.Procs)
	if total.Queries > 0 {
		total.NativeQ /= float64(total.Queries)
		total.NewQ /= float64(total.Queries)
	}
	t.add(total)
	var sb strings.Builder
	sb.WriteString("Table 2: Results of the Runtime Experiments (measured ns vs. paper cycles)\n")
	sb.WriteString("Native = LAO-style iterative data-flow (φ-related, sorted arrays);\n")
	sb.WriteString("New = this paper's checker. Comparable columns: the three speedups.\n\n")
	sb.WriteString(t.String())
	return sb.String()
}

type table2Formatter struct {
	sb   strings.Builder
	rows int
}

// NewTable2Formatter builds the two-line-per-benchmark Table 2 renderer.
func NewTable2Formatter() *table2Formatter {
	f := &table2Formatter{}
	fmt.Fprintf(&f.sb, "%-12s %7s | %12s %12s %6s | %9s %9s %9s %6s | %6s\n",
		"Benchmark", "#Proc", "NativePre", "NewPre", "Spdup",
		"#Queries", "NativeQ", "NewQ", "Spdup", "Both")
	f.sb.WriteString(strings.Repeat("-", 118))
	f.sb.WriteByte('\n')
	return f
}

func (f *table2Formatter) add(r Row) {
	pre, q, both := r.Speedups()
	fmt.Fprintf(&f.sb, "%-12s %7d | %12.1f %12.1f %6.2f | %9d %9.1f %9.1f %6.2f | %6.2f\n",
		r.Name, r.Procs, r.NativePre, r.NewPre, pre,
		r.Queries, r.NativeQ, r.NewQ, q, both)
	if p, ok := paperTable2[r.Name]; ok {
		fmt.Fprintf(&f.sb, "%-12s %7d | %12.1f %12.1f %6.2f | %9d %9.1f %9.1f %6.2f | %6.2f\n",
			"  (paper)", p.procs, p.nativePre, p.newPre, p.preSpd,
			p.queries, p.nativeQ, p.newQ, p.qSpd, p.both)
	}
	f.rows++
}

func (f *table2Formatter) String() string { return f.sb.String() }

// FullPrecompStats reproduces the §6.2 in-text comparison: a full (not
// φ-related) native liveness precomputation against the checker's, with
// live-set fill ratios.
func FullPrecompStats(corpora []*Corpus) string {
	var phiFill, fullFill float64
	var phiTime, fullTime, newTime float64
	procs := 0
	for _, c := range corpora {
		for _, p := range c.Procs {
			f := p.F
			procs++
			phiTime += timeOp(perProcBudget, func() {
				lao.Analyze(f, lao.Options{PhiRelatedOnly: true})
			})
			fullTime += timeOp(perProcBudget, func() {
				lao.Analyze(f, lao.Options{})
			})
			g, _ := cfg.FromFunc(f)
			d := cfg.NewDFS(g)
			tree := dom.Iterative(g, d)
			newTime += timeOp(perProcBudget, func() {
				core.NewFrom(g, d, tree, core.Options{})
			})
			phiFill += lao.Analyze(f, lao.Options{PhiRelatedOnly: true}).AvgLiveIn()
			fullFill += lao.Analyze(f, lao.Options{}).AvgLiveIn()
		}
	}
	n := float64(procs)
	var sb strings.Builder
	sb.WriteString("§6.2 in-text: full vs φ-related native precomputation (measured vs. paper)\n\n")
	fmt.Fprintf(&sb, "%-52s %10s %10s\n", "", "measured", "paper")
	fmt.Fprintf(&sb, "%-52s %10.2f %10s\n", "avg live-in fill, φ-related universe", phiFill/n, "3.16")
	fmt.Fprintf(&sb, "%-52s %10.2f %10s\n", "avg live-in fill, full universe", fullFill/n, "18.52")
	fmt.Fprintf(&sb, "%-52s %10.2f %10s\n", "full native pre / φ-related native pre", fullTime/phiTime, "~1.6")
	fmt.Fprintf(&sb, "%-52s %10.2f %10s\n", "full native pre / checker pre (speedup)", fullTime/newTime, "~4.7")
	return sb.String()
}

// ScalingSeries reproduces the §6.1/§8 discussion of quadratic
// precomputation cost: checker precompute time and set memory against CFG
// size, next to the native baseline's set memory.
func ScalingSeries(sizes []int) string {
	var sb strings.Builder
	sb.WriteString("§6.1/§8: precomputation scaling with CFG size (quadratic sets)\n\n")
	fmt.Fprintf(&sb, "%8s %14s %14s %16s %16s\n",
		"blocks", "checker-ns", "native-ns", "checker-bytes", "native-bytes")
	for _, n := range sizes {
		c := gen.Default(int64(n) * 1911)
		c.TargetBlocks = n
		c.Slots = 8
		f := gen.Generate("scale", c)
		ssa.Construct(f)
		g, _ := cfg.FromFunc(f)
		d := cfg.NewDFS(g)
		tree := dom.Iterative(g, d)
		runtime.GC()
		checkerNs := timeOp(8*perProcBudget, func() {
			core.NewFrom(g, d, tree, core.Options{})
		})
		runtime.GC()
		nativeNs := timeOp(8*perProcBudget, func() {
			lao.Analyze(f, lao.Options{})
		})
		ck := core.NewFrom(g, d, tree, core.Options{})
		nat := lao.Analyze(f, lao.Options{})
		fmt.Fprintf(&sb, "%8d %14.0f %14.0f %16d %16d\n",
			len(f.Blocks), checkerNs, nativeNs, ck.MemoryBytes(), nat.MemoryBytes())
	}
	return sb.String()
}

// DestructionStats summarizes the query workload itself: queries per
// procedure and per φ-related variable (the paper reports 5.19 queries per
// variable on average, 26.53 for crafty).
func DestructionStats(corpora []*Corpus) string {
	var sb strings.Builder
	sb.WriteString("SSA destruction query workload (queries per φ-related variable)\n\n")
	fmt.Fprintf(&sb, "%-12s %10s %10s %12s %10s\n", "Benchmark", "#Proc", "#Queries", "φ-rel vars", "q/var")
	totQ, totV, totP := 0, 0, 0
	for _, c := range corpora {
		q, vars := 0, 0
		for _, p := range c.Procs {
			q += len(RecordQueries(p))
			vars += lao.Analyze(p.F, lao.Options{PhiRelatedOnly: true}).NumVars()
		}
		ratio := 0.0
		if vars > 0 {
			ratio = float64(q) / float64(vars)
		}
		fmt.Fprintf(&sb, "%-12s %10d %10d %12d %10.2f\n", c.Spec.Name, len(c.Procs), q, vars, ratio)
		totQ += q
		totV += vars
		totP += len(c.Procs)
	}
	fmt.Fprintf(&sb, "%-12s %10d %10d %12d %10.2f   (paper: 5.19 q/var)\n",
		"Total", totP, totQ, totV, float64(totQ)/float64(totV))
	return sb.String()
}
