package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fastliveness"
	"fastliveness/internal/destruct"
	"fastliveness/internal/ir"
	"fastliveness/internal/pipeline"
	"fastliveness/internal/regalloc"
	"fastliveness/internal/ssa"
)

// compile: a closed loop in one goroutine drives a seeded draw of the
// SPEC2000-calibrated procedures (slot form) through
// pipeline.DefaultPasses() — construct, split-edges, destruct, regalloc —
// on one engine, as a compiler would. The draw is compiled again from
// fresh copies, at least minReps times and until the window is used up;
// job_s sums each function's median pipeline time over the draw.
type compileSize struct {
	draw, maxBlocks, setupReps, minReps int
}

func compileSizeFor(size string) compileSize {
	if size == "tiny" {
		return compileSize{draw: 12, maxBlocks: 40, setupReps: 1, minReps: 2}
	}
	return compileSize{draw: 3000, maxBlocks: 120, setupReps: 5, minReps: 3}
}

func runCompile(e *env) error {
	r := e.rep
	sz := compileSizeFor(e.size)
	var master []*ir.Func
	var pool []procRef
	setup, err := medianSetup(r, sz.setupReps, func() error {
		rng := rand.New(rand.NewSource(e.seed))
		pool = specPool(sz.maxBlocks)
		master = generateSpec(stratifiedDraw(pool, sz.draw, rng))
		return nil
	}, nil)
	if err != nil {
		return err
	}
	r.printf("input: %s (slot form; stratified draw of %d of the %d procedures with at most %d target blocks)",
		identity(master), len(master), len(pool), sz.maxBlocks)

	// The untraced closed loop. Each function's time is its median over
	// the repetitions, so a burst of machine noise during one repetition
	// does not move the result; compile_s sums them over the draw.
	var repS []float64
	var perRep [][]float64
	var outputs [][][32]byte
	mem := startMem()
	start := time.Now()
	for rep := 0; rep < sz.minReps || time.Since(start) < e.window; rep++ {
		funcs := cloneAll(master)
		runtime.GC()
		var durs []time.Duration
		t0 := time.Now()
		rp, err := pipeline.RunPasses(funcs, timedPasses(&durs), pipeline.Config{})
		d := time.Since(t0)
		if err != nil {
			r.fail(err)
			break
		}
		r.check(rp.Funcs == len(funcs), "compile: %d of %d functions completed", rp.Funcs, len(funcs))
		r.check(rp.Rebuilds == 0, "compile: checker pipeline paid %d rebuilds", rp.Rebuilds)
		if len(durs) != len(funcs) {
			r.fail(fmt.Errorf("compile: %d of %d functions timed", len(durs), len(funcs)))
			break
		}
		repS = append(repS, d.Seconds())
		ms := make([]float64, len(durs))
		for i, fd := range durs {
			ms[i] = float64(fd.Nanoseconds()) / 1e6
		}
		perRep = append(perRep, ms)
		outputs = append(outputs, hashes(funcs))
	}
	mem.stop()
	rss := peakRSSMB()
	if len(perRep) == 0 {
		return errors.New("compile: no repetition completed")
	}
	perFunc := make([]float64, len(master))
	jobS := 0.0
	for i := range perFunc {
		var xs []float64
		for _, ms := range perRep {
			xs = append(xs, ms[i])
		}
		perFunc[i] = median(xs)
		jobS += perFunc[i] / 1e3
	}
	r.gate(mSetup, setup, "s")
	r.gate(mJob, jobS, "s")
	r.gate(mOpP50, quantile(perFunc, 0.5), "ms")
	r.gate(mOpTail, quantile(perFunc, 0.9), "ms")
	r.gate(mPeakRSS, rss, "MB")
	r.named("setup_s", setup, "s")
	r.named("compile_s", jobS, "s")
	r.named("func_p50_ms", quantile(perFunc, 0.5), "ms")
	r.named("func_p90_ms", quantile(perFunc, 0.9), "ms")
	r.named("peak_rss_mb", rss, "MB")
	r.printf("samples: %d repetitions of the draw (wall %.4g s), per-function medians of %d functions", len(repS), repS, len(perFunc))

	// Reference: the same pipeline over the dataflow backend, whose
	// liveness is an independent implementation. Every function of every
	// repetition must come out byte-identical.
	ref := cloneAll(master)
	if _, err := pipeline.RunPasses(ref, pipeline.DefaultPasses(), pipeline.Config{Backend: "dataflow"}); err != nil {
		r.fail(fmt.Errorf("compile: dataflow reference: %w", err))
		return nil
	}
	want := hashes(ref)
	for _, got := range outputs {
		for i := range want {
			r.check(got[i] == want[i], "compile: %s differs from the dataflow-backend pipeline output", ref[i].Name)
		}
	}
	if !e.trace {
		return nil
	}
	mem.layers(r)
	return traceCompile(e, master, want, jobS)
}

// timedPasses is pipeline.DefaultPasses with each function's time from
// the start of construct to the end of regalloc appended to durs.
func timedPasses(durs *[]time.Duration) []pipeline.Pass {
	passes := pipeline.DefaultPasses()
	first, last := passes[0].Run, passes[len(passes)-1].Run
	var start time.Time
	passes[0].Run = func(c *pipeline.Context) error {
		start = time.Now()
		return first(c)
	}
	passes[len(passes)-1].Run = func(c *pipeline.Context) error {
		err := last(c)
		*durs = append(*durs, time.Since(start))
		return err
	}
	return passes
}

func hashes(funcs []*ir.Func) [][32]byte {
	out := make([][32]byte, len(funcs))
	for i, f := range funcs {
		out[i] = printHash(f)
	}
	return out
}

// timedOracle counts every liveness query a pass makes and times one in
// oracleSample of them, each next to an empty interval timed the same
// way; busy extrapolates the sampled time less the clock's own cost to
// all queries. Timing every query would triple the traced run's wall
// time.
type timedOracle struct {
	o    *fastliveness.Oracle
	busy time.Duration
	n    int64
}

const oracleSample = 16

func (t *timedOracle) IsLiveIn(v *ir.Value, b *ir.Block) bool {
	t.n++
	if t.n%oracleSample != 0 {
		return t.o.IsLiveIn(v, b)
	}
	s := time.Now()
	ok := t.o.IsLiveIn(v, b)
	t.note(time.Since(s))
	return ok
}

func (t *timedOracle) IsLiveOut(v *ir.Value, b *ir.Block) bool {
	t.n++
	if t.n%oracleSample != 0 {
		return t.o.IsLiveOut(v, b)
	}
	s := time.Now()
	ok := t.o.IsLiveOut(v, b)
	t.note(time.Since(s))
	return ok
}

func (t *timedOracle) note(d time.Duration) {
	s := time.Now()
	clock := time.Since(s)
	t.busy += oracleSample * (d - clock)
}

// traceCompile runs the draw once more through a traced copy of the
// default pass chain: the same public calls in the same order (ssa.Construct,
// destruct.Prepare, destruct.Run, regalloc.Run with the budget doubling on
// ErrTooFewRegisters), on an engine whose Tracer records builds, with
// every oracle query timed. Its outputs must equal the reference too.
func traceCompile(e *env, master []*ir.Func, want [][32]byte, untracedS float64) error {
	r := e.rep
	funcs := cloneAll(master)
	t := newTracer()
	et := newEngineTracer(t, fnIndex(funcs))
	eng := fastliveness.NewEngine(fastliveness.EngineConfig{Tracer: et})
	defer eng.Close()
	eng.Add(funcs...)

	var destructQ, oracleQ, rounds, spills int64
	var oracleBusy, tracedD time.Duration
	allocs := make([]*regalloc.Allocation, len(funcs))
	runtime.GC()
	for id, f := range funcs {
		root := t.id()
		fStart := time.Now()

		s := time.Now()
		if f.NumSlots > 0 {
			ssa.Construct(f)
		}
		t.record(0, root, id, "ssa.construct", s, time.Now())

		s = time.Now()
		destruct.Prepare(f)
		t.record(0, root, id, "destruct.prepare", s, time.Now())

		sp := t.id()
		et.enter(sp)
		s = time.Now()
		o, err := eng.Oracle(f)
		if err != nil {
			return fmt.Errorf("compile trace: %s: %w", f.Name, err)
		}
		to := &timedOracle{o: o}
		destruct.Run(f, to, destruct.ModeCoalesce)
		end := time.Now()
		t.record(sp, root, id, "destruct", s, end)
		if to.n > 0 {
			t.recordAgg(0, sp, id, "oracle", s, end, to.busy, to.n)
		}
		destructQ += to.n
		oracleQ += to.n
		oracleBusy += to.busy

		sp = t.id()
		et.enter(sp)
		s = time.Now()
		o, err = eng.Oracle(f)
		if err != nil {
			return fmt.Errorf("compile trace: %s: %w", f.Name, err)
		}
		to = &timedOracle{o: o}
		k := pipeline.DefaultRegs
		var alloc *regalloc.Allocation
		for {
			alloc, err = regalloc.Run(f, to, k)
			if alloc != nil {
				rounds += int64(alloc.Stats.Rounds)
				spills += int64(alloc.Stats.Spills)
			}
			if errors.Is(err, regalloc.ErrTooFewRegisters) {
				k *= 2
				continue
			}
			break
		}
		if err != nil {
			return fmt.Errorf("compile trace: %s: %w", f.Name, err)
		}
		end = time.Now()
		t.record(sp, root, id, "regalloc", s, end)
		if to.n > 0 {
			t.recordAgg(0, sp, id, "oracle", s, end, to.busy, to.n)
		}
		oracleQ += to.n
		oracleBusy += to.busy
		et.enter(0)
		fEnd := time.Now()
		t.record(root, 0, id, "pipeline", fStart, fEnd)
		tracedD += fEnd.Sub(fStart)
		allocs[id] = alloc
	}
	tracedS := tracedD.Seconds()
	for i, f := range funcs {
		r.check(printHash(f) == want[i], "compile trace: %s differs from the reference output", f.Name)
		r.check(regalloc.VerifyAllocation(f, allocs[i]) == nil, "compile trace: %s: allocation fails VerifyAllocation", f.Name)
	}
	m := eng.Metrics()
	layerTimes(r, t, map[string]string{
		"ssa.construct_s": "ssa.construct",
		"destruct.s":      "destruct",
		"regalloc.s":      "regalloc",
		"regalloc.self_s": "regalloc",
		"oracle.s":        "oracle",
		"engine.build_s":  "engine.build",
	})
	r.layer("destruct.queries", float64(destructQ))
	r.layer("oracle.queries", float64(oracleQ))
	r.layer("oracle.ns_per_query", float64(oracleBusy.Nanoseconds())/float64(max(oracleQ, 1)))
	r.layer("regalloc.rounds", float64(rounds))
	r.layer("regalloc.spills", float64(spills))
	r.layer("engine.builds", float64(m.Builds))
	r.layer("engine.rebuilds", float64(m.Rebuilds+m.BackgroundRebuilds))
	r.check(m.Rebuilds+m.BackgroundRebuilds == 0, "compile trace: checker paid %d rebuilds", m.Rebuilds)
	r.named("traced compile_s", tracedS, "s")
	overhead(r, tracedS, untracedS)
	return finishTrace(e, t)
}
