package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"fastliveness"
	"fastliveness/internal/dataflow"
	"fastliveness/internal/destruct"
	"fastliveness/internal/ir"
	"fastliveness/internal/ssa"
)

// serve: a long-lived engine over SPEC-calibrated functions (SSA form,
// critical edges split) with default shards, one rebuild worker, a
// snapshot store, and MaxCached a quarter of the function count. One
// closed-loop querier issues BatchIsLiveIn batches on seeded random
// functions, and between its batches one open-loop mutator applies
// Engine.Edit at a fixed rate, one in eight a CFG edit (SplitEdge), the
// rest instruction edits.
type serveSize struct {
	funcs, maxBlocks, batch, setupReps int
	editRate                           float64       // edits per second
	warm                               time.Duration // untimed load before the window
}

func serveSizeFor(size string) serveSize {
	if size == "tiny" {
		return serveSize{funcs: 16, maxBlocks: 40, batch: 32, setupReps: 1, editRate: 200, warm: 100 * time.Millisecond}
	}
	return serveSize{funcs: 1000, maxBlocks: 150, batch: 240, setupReps: 5, editRate: 500, warm: 2 * time.Second}
}

const cfgEditEvery = 8

// serveState is one set-up serving engine and its inputs.
type serveState struct {
	dir     string
	funcs   []*ir.Func
	batches [][]fastliveness.Query
	anchors [][]*ir.Value // values the instruction edits add uses of
	eng     *fastliveness.Engine
}

func (s *serveState) close() {
	s.eng.Close()
	os.RemoveAll(s.dir)
}

// setupServe builds the corpus, its query batches and a populated engine:
// every function is precomputed once, so the store holds a snapshot of
// each and the window starts from a steady state.
func setupServe(dir string, seed int64, sz serveSize, et *engineTracer) (*serveState, error) {
	rng := rand.New(rand.NewSource(seed))
	funcs := generateSpec(stratifiedDraw(specPool(sz.maxBlocks), sz.funcs, rng))
	s := &serveState{dir: dir, funcs: funcs}
	for _, f := range funcs {
		ssa.Construct(f)
		destruct.Prepare(f)
		s.batches = append(s.batches, queriesFor(f, sz.batch, rng))
		var anchors []*ir.Value
		for _, q := range s.batches[len(s.batches)-1][:8] {
			anchors = append(anchors, q.V)
		}
		s.anchors = append(s.anchors, anchors)
	}
	var tr fastliveness.Tracer
	if et != nil {
		et.fnID = fnIndex(funcs)
		tr = et
	}
	store, err := fastliveness.OpenSnapshotStore(dir, 0)
	if err != nil {
		return nil, err
	}
	s.eng = fastliveness.NewEngine(fastliveness.EngineConfig{
		MaxCached:      len(funcs) / 4,
		RebuildWorkers: 1,
		SnapshotStore:  store,
		Tracer:         tr,
	})
	s.eng.Add(funcs...)
	if err := s.eng.Precompute(); err != nil {
		s.close()
		return nil, err
	}
	// Saves ride the rebuild worker; let them land before the window.
	shapes := distinctShapes(funcs)
	for deadline := time.Now().Add(time.Minute); store.Len() < shapes; {
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("serve: store holds %d of %d snapshots a minute after set-up", store.Len(), shapes)
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// serveWindow is what one measurement window observed.
type serveWindow struct {
	batchUS   []float64       // latency of each batch
	batchEnd  []time.Duration // when each batch completed, from the window's start
	batchQ    []int           // queries each batch answered
	elapsed   time.Duration
	editUS    []float64
	scheduled int // edits due within the window
	maxLag    time.Duration
	errs      []error
	before    fastliveness.EngineMetrics
	after     fastliveness.EngineMetrics
}

// serveSlice is the length of the slices the window's statistics are
// taken over. A slice holds a few thousand batches, and a burst of
// machine noise, such as a core taken away for tens of milliseconds,
// moves only the slices it falls in.
const serveSlice = 100 * time.Millisecond

// sliceStats is one slice's throughput and batch latency percentiles.
type sliceStats struct{ qps, p50, p90, p99 []float64 }

// sliced returns the window's throughput and batch latency percentiles as
// medians over its slices, so that a burst of machine noise does not
// move them.
func (w *serveWindow) sliced() (qps, p50, p90, p99 float64) {
	st := w.slices()
	return median(st.qps), median(st.p50), median(st.p90), median(st.p99)
}

// slices returns each slice's throughput and batch latency percentiles.
func (w *serveWindow) slices() sliceStats {
	n := max(int(w.elapsed/serveSlice), 1)
	slice := w.elapsed / time.Duration(n)
	lat := make([][]float64, n)
	queries := make([]float64, n)
	for i, end := range w.batchEnd {
		k := min(int(end/slice), n-1)
		lat[k] = append(lat[k], w.batchUS[i])
		queries[k] += float64(w.batchQ[i])
	}
	var st sliceStats
	for k := range lat {
		if len(lat[k]) == 0 {
			continue
		}
		st.qps = append(st.qps, queries[k]/slice.Seconds())
		st.p50 = append(st.p50, quantile(lat[k], 0.5))
		st.p90 = append(st.p90, quantile(lat[k], 0.9))
		st.p99 = append(st.p99, quantile(lat[k], 0.99))
	}
	return st
}

// tally counts the window's batches and edits as checked operations and
// its errors as failures.
func (w *serveWindow) tally(r *report) {
	for _, err := range w.errs {
		r.fail(err)
	}
	for i := len(w.errs); i < len(w.batchUS)+len(w.editUS); i++ {
		r.check(true, "")
	}
}

// window runs the querier for d after a warm-up of sz.warm, with the
// mutator's edits interleaved on the same goroutine.
//
// Both loops share one goroutine so that, beside the engine's rebuild
// worker, the benchmark keeps no more goroutines runnable than a 2-core
// machine has cores: a mutator goroutine of its own would wait up to a
// Go scheduler time slice (10 ms) for a core, and the window would then
// measure the scheduler more than the engine. The mutator stays
// open-loop: its edits fall due at a fixed rate whatever the querier
// does, and before each batch every edit that has come due is applied
// and timed from when it was due.
//
// The warm-up runs the same load untimed, so the resident cache, the
// decoded-snapshot cache and the heap reach the window's steady state.
func (s *serveState) window(d time.Duration, seed int64, sz serveSize) *serveWindow {
	w := &serveWindow{}
	period := time.Duration(float64(time.Second) / sz.editRate)
	mut := rand.New(rand.NewSource(seed*31 + 7))
	rng := rand.New(rand.NewSource(seed*17 + 3))

	origin := time.Now() // when edit 0 was due
	start := origin.Add(sz.warm)
	edits := 0
	for measured := false; ; {
		if !measured && !time.Now().Before(start) {
			measured = true
			w.before = s.eng.Metrics()
		}
		if measured && time.Since(start) >= d {
			break
		}
		for {
			due := origin.Add(time.Duration(edits) * period)
			now := time.Now()
			if now.Before(due) {
				break
			}
			s.edit(edits, mut)
			if measured {
				if lag := now.Sub(due); lag > w.maxLag {
					w.maxLag = lag
				}
				w.editUS = append(w.editUS, float64(time.Since(due).Nanoseconds())/1e3)
			}
			edits++
		}
		idx := rng.Intn(len(s.funcs))
		t0 := time.Now()
		_, err := s.eng.BatchIsLiveIn(s.funcs[idx], s.batches[idx])
		t1 := time.Now()
		if !measured {
			if err != nil {
				w.errs = append(w.errs, fmt.Errorf("serve: warm-up batch on %s: %w", s.funcs[idx].Name, err))
			}
			continue
		}
		w.batchUS = append(w.batchUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		w.batchEnd = append(w.batchEnd, t1.Sub(start))
		if err != nil {
			w.batchQ = append(w.batchQ, 0)
			w.errs = append(w.errs, fmt.Errorf("serve: batch on %s: %w", s.funcs[idx].Name, err))
			continue
		}
		w.batchQ = append(w.batchQ, len(s.batches[idx]))
	}
	w.elapsed = time.Since(start)
	w.scheduled = int(w.elapsed/period) + 1
	w.after = s.eng.Metrics()
	return w
}

// edit applies the mutator's i-th edit: every cfgEditEvery-th splits an
// edge of a random block, the others add an instruction that uses one of
// the function's anchor values.
func (s *serveState) edit(i int, rng *rand.Rand) {
	idx := rng.Intn(len(s.funcs))
	f := s.funcs[idx]
	cfgEdit := i%cfgEditEvery == cfgEditEvery-1
	pick := rng.Int()
	s.eng.Edit(f, func() {
		if cfgEdit {
			j := pick % len(f.Blocks)
			for len(f.Blocks[j].Succs) == 0 {
				j = (j + 1) % len(f.Blocks)
			}
			b := f.Blocks[j]
			b.SplitEdge(pick % len(b.Succs))
			return
		}
		v := s.anchors[idx][pick%len(s.anchors[idx])]
		v.Block.NewValue(ir.OpNeg, v)
	})
}

// verify asks every function its batch with the mutator stopped and
// compares each answer with a fresh dataflow analysis of the edited IR.
func (s *serveState) verify(r *report) {
	for i, f := range s.funcs {
		got, err := s.eng.BatchIsLiveIn(f, s.batches[i])
		if err != nil {
			r.fail(fmt.Errorf("serve: final batch on %s: %w", f.Name, err))
			continue
		}
		truth := dataflow.Analyze(f)
		bad := 0
		for j, q := range s.batches[i] {
			if got[j] != truth.IsLiveIn(q.V, q.B) {
				bad++
			}
		}
		r.check(bad == 0, "serve: %s: %d of %d answers differ from a fresh dataflow analysis", f.Name, bad, len(got))
	}
}

func runServe(e *env) error {
	r := e.rep
	sz := serveSizeFor(e.size)
	var s *serveState
	rep := 0
	setup, err := medianSetup(r, sz.setupReps, func() error {
		var err error
		s, err = setupServe(filepath.Join(e.work, fmt.Sprintf("serve-%d", rep)), e.seed, sz, nil)
		rep++
		return err
	}, func() { s.close() })
	if err != nil {
		return err
	}
	r.printf("input: %s (SSA form, critical edges split; stratified draw of %d of the %d procedures with at most %d target blocks; MaxCached=%d, %d-query batches, %g edits/s)",
		identity(s.funcs), len(s.funcs), len(specPool(sz.maxBlocks)), sz.maxBlocks, len(s.funcs)/4, sz.batch, sz.editRate)

	mem := startMem()
	w := s.window(e.window, e.seed, sz)
	mem.stop()
	rss := peakRSSMB()
	w.tally(r)
	s.verify(r)
	s.close()

	st := w.slices()
	r.printf("slices: %d of %v; queries/s quartiles %.4g; batch p90 us quartiles %.4g",
		len(st.qps), serveSlice, quartiles(st.qps), quartiles(st.p90))
	qps, p50, p90, p99 := w.sliced()
	r.gate(mSetup, setup, "s")
	r.gate(mJob, 1e6/qps, "s")
	r.gate(mOpP50, p50/1e3, "ms")
	r.gate(mOpTail, p90/1e3, "ms")
	r.gate(mPeakRSS, rss, "MB")
	r.named("setup_s", setup, "s")
	r.named("serve_qps", qps, "queries/s")
	r.named("batch_p50_us", p50, "us")
	r.named("batch_p90_us", p90, "us")
	r.named("batch_p99_us", p99, "us")
	r.named("peak_rss_mb", rss, "MB")
	r.printf("samples: %d batches, %d of %d scheduled edits done, edit p99 %.4g us from due time, mutator max lag %.4g ms",
		len(w.batchUS), len(w.editUS), w.scheduled, quantile(w.editUS, 0.99), float64(w.maxLag.Nanoseconds())/1e6)
	if !e.trace {
		return nil
	}
	mem.layers(r)

	// The traced window runs on a second, identically built engine whose
	// Tracer aggregates batches, builds and snapshot loads per function.
	t := newTracer()
	et := newEngineTracer(t, nil)
	et.aggregate = true
	ts, err := setupServe(filepath.Join(e.work, "serve-traced"), e.seed, sz, et)
	if err != nil {
		return err
	}
	defer ts.close()
	tw := ts.window(e.window, e.seed, sz)
	tw.tally(r)
	ts.verify(r)
	et.flush()
	busy, _ := t.layerTimes()
	b, a := tw.before, tw.after
	r.layer("engine.batch_s", busy["engine.batch"].Seconds())
	r.layer("engine.snapshot_load_s", busy["engine.snapshot_load"].Seconds())
	r.layer("engine.build_s", busy["engine.build"].Seconds())
	r.layer("engine.builds", float64(a.Builds-b.Builds))
	r.layer("engine.rebuilds", float64(a.Rebuilds-b.Rebuilds))
	r.layer("engine.refills", float64((a.Builds-b.Builds)-int64(a.BackgroundRebuilds-b.BackgroundRebuilds)-int64(a.Rebuilds-b.Rebuilds)))
	r.layer("engine.resident", float64(a.Resident))
	r.layer("snapshot.hits", float64(a.Snapshot.Hits-b.Snapshot.Hits))
	r.layer("snapshot.stores", float64(a.Snapshot.Stores-b.Snapshot.Stores))
	r.layer("snapshot.stored_bytes", float64(a.Snapshot.StoredBytes-b.Snapshot.StoredBytes))
	r.layer("snapshot.decoded_cache_hits", float64(a.Snapshot.DecodedCacheHits-b.Snapshot.DecodedCacheHits))
	r.layer("snapshot.decoded_cache_misses", float64(a.Snapshot.DecodedCacheMisses-b.Snapshot.DecodedCacheMisses))
	r.layer("rebuild.background", float64(a.BackgroundRebuilds-b.BackgroundRebuilds))
	r.layer("rebuild.enqueues", float64(a.RebuildEnqueues-b.RebuildEnqueues))
	r.layer("rebuild.discards", float64(a.RebuildDiscards-b.RebuildDiscards))
	r.layer("edit.p99_us", quantile(tw.editUS, 0.99))
	r.layer("mutator.lag_ms", float64(tw.maxLag.Nanoseconds())/1e6)
	tqps, _, _, _ := tw.sliced()
	r.named("traced serve_qps", tqps, "queries/s")
	overhead(r, 1e6/tqps, 1e6/qps)
	return finishTrace(e, t)
}
