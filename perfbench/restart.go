package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"fastliveness"
	"fastliveness/internal/backend"
	"fastliveness/internal/cfg"
	"fastliveness/internal/core"
	"fastliveness/internal/dataflow"
	"fastliveness/internal/dom"
	"fastliveness/internal/ir"
	"fastliveness/internal/snapshot"
)

// restart: sequential process starts over a program of large loopy
// functions. Every start is a fresh child process that parses the printed
// program before its clock starts. A cold start opens an empty store and
// runs Engine.Precompute, which computes every function and writes its
// snapshot back; a warm start opens the store the last cold start filled,
// precomputes (every function should load from its snapshot) and answers
// K questions per function. Starts do not share a process because
// snapshot.Store never unmaps what it maps, so starts in one process
// would accumulate mappings, and because a real restart pays ir.Verify
// and a fresh heap again.
type restartSize struct {
	targets      []int
	k            int
	cold, warm   int
	setupReps    int
	tCold, tWarm int // starts of the traced run
}

func restartSizeFor(size string) restartSize {
	if size == "tiny" {
		return restartSize{targets: []int{64, 128, 96}, k: 16, cold: 2, warm: 2, setupReps: 1, tCold: 1, tWarm: 1}
	}
	return restartSize{
		targets: []int{8192, 2048, 4096, 1024, 6144, 3072, 512, 7168, 8192, 2048, 4096, 1024, 6144, 3072, 512, 7168},
		k:       64, cold: 9, warm: 21, setupReps: 5, tCold: 3, tWarm: 3,
	}
}

// restartQueries draws the K questions a start must answer per function.
func restartQueries(funcs []*ir.Func, seed int64, k int) [][]fastliveness.Query {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	qs := make([][]fastliveness.Query, len(funcs))
	for i, f := range funcs {
		qs[i] = queriesFor(f, k, rng)
	}
	return qs
}

// answerString renders every function's batch answers as one 0/1 string.
func answerString(ans [][]bool) string {
	var sb strings.Builder
	for _, a := range ans {
		for _, v := range a {
			if v {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

// startResult is what a start child reports, as one JSON line.
type startResult struct {
	Input       string             `json:"input"`
	Ns          int64              `json:"ns"`
	Answers     string             `json:"answers"`
	Hits        int64              `json:"hits"`
	Misses      int64              `json:"misses"`
	Computes    int64              `json:"computes"`
	Stores      int64              `json:"stores"`
	StoredBytes int64              `json:"stored_bytes"`
	Scans       int64              `json:"section_scans"`
	Skips       int64              `json:"section_skips"`
	MinorFaults int64              `json:"minor_faults"`
	PeakRSSMB   float64            `json:"peak_rss_mb"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Spans       []span             `json:"spans,omitempty"`
}

// restartRun is the parent's view of one run's inputs.
type restartRun struct {
	e       *env
	program string // printed IR for the children
	input   string
	want    string // reference answers
	n       int64  // functions
	shapes  int64  // distinct CFG fingerprints, one snapshot file each
}

func runRestart(e *env) error {
	r := e.rep
	sz := restartSizeFor(e.size)
	var funcs []*ir.Func
	setup, err := medianSetup(r, sz.setupReps, func() error {
		funcs = warmProgram(e.seed, sz.targets)
		return nil
	}, nil)
	if err != nil {
		return err
	}
	rr := &restartRun{e: e, program: filepath.Join(e.work, "program.json")}
	if err := writeProgram(rr.program, printAll(funcs)); err != nil {
		return err
	}
	// The children parse the printed program, which orders some values
	// differently from the generated IR; the questions and the reference
	// answers come from the same parse.
	funcs, texts, err := readProgram(rr.program)
	if err != nil {
		return err
	}
	rr.input = identityOf(funcs, texts)
	rr.n, rr.shapes = int64(len(funcs)), int64(distinctShapes(funcs))
	r.printf("input: %s (SSA form; %d functions, every third irreducible; K=%d answers per function)",
		rr.input, len(funcs), sz.k)

	// Reference answers from a fresh dataflow analysis, never timed.
	qs := restartQueries(funcs, e.seed, sz.k)
	want := make([][]bool, len(funcs))
	for i, f := range funcs {
		truth := dataflow.Analyze(f)
		want[i] = make([]bool, len(qs[i]))
		for j, q := range qs[i] {
			want[i][j] = truth.IsLiveIn(q.V, q.B)
		}
	}
	rr.want = answerString(want)
	funcs, qs, texts = nil, nil, nil

	// Cold starts take the first half of the window, warm starts the
	// second, each at least its minimum count.
	coldS, storeBytes, warmDir, err := rr.coldStarts(sz.cold, e.window/2, nil)
	if err != nil {
		return err
	}
	warms, err := rr.warmStarts(warmDir, sz.warm, e.window/2, nil)
	if err != nil {
		return err
	}
	var warmMS, rss, faults []float64
	for _, res := range warms {
		warmMS = append(warmMS, float64(res.Ns)/1e6)
		rss = append(rss, res.PeakRSSMB)
		faults = append(faults, float64(res.MinorFaults))
	}
	coldMed := median(coldS)
	r.gate(mSetup, setup, "s")
	r.gate(mJob, coldMed, "s")
	r.gate(mOpP50, median(warmMS), "ms")
	r.gate(mOpTail, quantile(warmMS, 0.9), "ms")
	r.gate(mPeakRSS, median(rss), "MB")
	r.named("setup_s", setup, "s")
	r.named("cold_start_s", coldMed, "s")
	r.named("warm_start_ms", median(warmMS), "ms")
	r.named("store_mb", float64(storeBytes)/1e6, "MB")
	r.named("peak_rss_mb", median(rss), "MB")
	r.printf("samples: %d cold starts %.4g s; %d warm starts %.4g ms; warm peak RSS %.4g MB",
		len(coldS), coldS, len(warmMS), warmMS, rss)
	if !e.trace {
		return nil
	}

	// The traced run: more starts, each child recording spans and
	// splitting its build or load into the layers' public calls.
	t := newTracer()
	tColdS, _, _, err := rr.coldStarts(sz.tCold, 0, t)
	if err != nil {
		return err
	}
	tWarms, err := rr.warmStarts(warmDir, sz.tWarm, 0, t)
	if err != nil {
		return err
	}
	layers := map[string][]float64{}
	for _, res := range tWarms {
		for k, v := range res.Layers {
			layers[k] = append(layers[k], v)
		}
		layers["snapshot.hits"] = append(layers["snapshot.hits"], float64(res.Hits))
		layers["snapshot.section_scans"] = append(layers["snapshot.section_scans"], float64(res.Scans)/float64(max(res.Hits, 1)))
		layers["snapshot.section_skips"] = append(layers["snapshot.section_skips"], float64(res.Skips)/float64(max(res.Hits, 1)))
	}
	for k, v := range layers {
		r.layer(k, median(v))
	}
	r.layer("proc.minor_faults", median(faults))
	r.named("traced cold_start_s", median(tColdS), "s")
	overhead(r, median(tColdS), coldMed)
	return finishTrace(e, t)
}

// coldStarts runs cold-start children, at least n and for at least d,
// each into its own empty store, and keeps the last store for the warm
// starts. With a tracer, the children trace: their spans go to t and
// their layer metrics into the report.
func (rr *restartRun) coldStarts(n int, d time.Duration, t *tracer) (secs []float64, storeBytes int64, dir string, err error) {
	r := rr.e.rep
	layers := map[string][]float64{}
	start := time.Now()
	for c := 0; c < n || time.Since(start) < d; c++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		name := fmt.Sprintf("cold-%d", c)
		if t != nil {
			name = "traced-" + name
		}
		dir = filepath.Join(rr.e.work, name)
		res, err := rr.e.startChild("cold", dir, rr.program, t != nil)
		if err != nil {
			return nil, 0, "", err
		}
		secs = append(secs, float64(res.Ns)/1e9)
		storeBytes = res.StoredBytes
		r.check(res.Input == rr.input, "restart: cold child parsed a different input: %s", res.Input)
		r.check(res.Answers == rr.want, "restart: cold-start answers differ from a fresh dataflow analysis")
		r.check(res.Misses == rr.n && res.Computes == rr.n && res.Stores == rr.shapes,
			"restart: cold start: misses=%d computes=%d stores=%d, want %d, %d, %d",
			res.Misses, res.Computes, res.Stores, rr.n, rr.n, rr.shapes)
		if t != nil {
			t.merge(res.Spans, len(secs))
			for k, v := range res.Layers {
				layers[k] = append(layers[k], v)
			}
		}
	}
	for k, v := range layers {
		r.layer(k, median(v))
	}
	return secs, storeBytes, dir, nil
}

// warmStarts runs warm-start children against the populated store, at
// least n and for at least d.
func (rr *restartRun) warmStarts(dir string, n int, d time.Duration, t *tracer) ([]*startResult, error) {
	r := rr.e.rep
	var out []*startResult
	start := time.Now()
	for w := 0; w < n || time.Since(start) < d; w++ {
		res, err := rr.e.startChild("warm", dir, rr.program, t != nil)
		if err != nil {
			return nil, err
		}
		r.check(res.Input == rr.input, "restart: warm child parsed a different input: %s", res.Input)
		r.check(res.Answers == rr.want, "restart: warm answers differ from a fresh dataflow analysis")
		r.check(res.Hits == rr.n && res.Misses == 0 && res.Computes == 0,
			"restart: warm start hits=%d misses=%d computes=%d, want %d hits only", res.Hits, res.Misses, res.Computes, rr.n)
		if t != nil {
			t.merge(res.Spans, 100+w)
		}
		out = append(out, res)
	}
	return out, nil
}

// startChild runs one start in a fresh process.
func (e *env) startChild(mode, store, program string, traced bool) (*startResult, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	settle()
	cmd := exec.Command(e.exe, "-child", mode, "-store", store, "-program", program,
		"-seed", fmt.Sprint(e.seed), "-size", e.size, "-trace", tr)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("restart: %s child: %w", mode, err)
	}
	var res startResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("restart: %s child output: %w", mode, err)
	}
	return &res, nil
}

// startChildMain is the body of a start child: parse the program, then
// time one cold or warm start and report it.
func startChildMain(mode, store, program string, seed int64, size string, traced bool, stdout io.Writer) int {
	if err := childStart(mode, store, program, seed, size, traced, stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s child: %v\n", mode, err)
		return 1
	}
	return 0
}

func childStart(mode, store, program string, seed int64, size string, traced bool, stdout io.Writer) error {
	if mode != "cold" && mode != "warm" {
		return fmt.Errorf("unknown start mode %q", mode)
	}
	sz := restartSizeFor(size)
	funcs, texts, err := readProgram(program)
	if err != nil {
		return err
	}
	qs := restartQueries(funcs, seed, sz.k)
	res := startResult{Input: identityOf(funcs, texts)}
	texts = nil
	var t *tracer
	var tr fastliveness.Tracer
	if traced {
		t = newTracer()
		tr = newEngineTracer(t, fnIndex(funcs))
	}
	// Start from a collected heap with its free pages returned, as a
	// process that has just read its input would be after a collection.
	debug.FreeOSMemory()
	faults := minorFaults()
	mem := startMem()
	start := time.Now()
	ss, err := fastliveness.OpenSnapshotStore(store, 0)
	if err != nil {
		return err
	}
	eng := fastliveness.NewEngine(fastliveness.EngineConfig{SnapshotStore: ss, Tracer: tr})
	defer eng.Close()
	eng.Add(funcs...)
	if err := eng.Precompute(); err != nil {
		return err
	}
	var ans [][]bool
	ask := func() error {
		for i, f := range funcs {
			a, err := eng.BatchIsLiveIn(f, qs[i])
			if err != nil {
				return err
			}
			ans = append(ans, a)
		}
		return nil
	}
	if mode == "warm" { // the warm clock runs to K answers per function
		if err := ask(); err != nil {
			return err
		}
	}
	res.Ns = time.Since(start).Nanoseconds()
	mem.stop()
	res.MinorFaults = minorFaults() - faults
	res.PeakRSSMB = residentMB()
	if mode == "cold" {
		if err := ask(); err != nil {
			return err
		}
	}
	res.Answers = answerString(ans)
	m := eng.Metrics()
	s := m.Snapshot
	res.Hits, res.Misses, res.Computes = s.Hits, s.Misses, s.Computes
	res.Stores, res.StoredBytes = s.Stores, s.StoredBytes
	res.Scans, res.Skips = s.SectionScans, s.SectionSkips
	if traced {
		busy, _ := t.layerTimes()
		if mode == "cold" {
			res.Layers = map[string]float64{
				"engine.build_s":        busy["engine.build"].Seconds(),
				"engine.builds":         float64(m.Builds),
				"snapshot.stores":       float64(s.Stores),
				"snapshot.stored_bytes": float64(s.StoredBytes),
			}
			for k, v := range mem.values() {
				res.Layers[k] = v
			}
			err = coldPhases(store+"-split", funcs, t, res.Layers)
		} else {
			res.Layers = map[string]float64{"engine.snapshot_load_s": busy["engine.snapshot_load"].Seconds()}
			err = warmPhases(store, funcs, qs, t, res.Layers)
		}
		if err != nil {
			return err
		}
		res.Spans = t.all()
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// writeProgram stores the printed program for the start children.
func writeProgram(path string, texts []string) error {
	buf, err := json.Marshal(texts)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// readProgram parses the program writeProgram stored.
func readProgram(path string) ([]*ir.Func, []string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var texts []string
	if err := json.Unmarshal(buf, &texts); err != nil {
		return nil, nil, err
	}
	funcs := make([]*ir.Func, len(texts))
	for i, t := range texts {
		if funcs[i], err = ir.Parse(t); err != nil {
			return nil, nil, err
		}
	}
	return funcs, texts, nil
}

// warmPhases splits a warm load into the layers the engine does not
// expose, by loading every function once more through a fresh store
// handle: snapshot.FingerprintFunc, snapshot.Store.Load (map plus
// validate), Snapshot.RestoreFrom (adopt) and the first query against the
// adopted arrays. Sums are over all functions.
func warmPhases(dir string, funcs []*ir.Func, qs [][]fastliveness.Query, t *tracer, layers map[string]float64) error {
	st, err := snapshot.Open(dir, 0)
	if err != nil {
		return err
	}
	opts := core.Options{}
	flags := snapshot.FlagsFor(opts)
	var fpD, loadD, restoreD, firstD time.Duration
	for id, f := range funcs {
		root := t.id()
		s0 := time.Now()
		fp, index := snapshot.FingerprintFunc(f, flags)
		s1 := time.Now()
		snap, err := st.Load(fp)
		if err != nil {
			return fmt.Errorf("%s: load: %w", f.Name, err)
		}
		s2 := time.Now()
		cr, err := snap.RestoreFrom(f, index, opts)
		if err != nil {
			return fmt.Errorf("%s: restore: %w", f.Name, err)
		}
		s3 := time.Now()
		cr.IsLiveIn(qs[id][0].V, qs[id][0].B)
		s4 := time.Now()
		t.record(0, root, id, "snapshot.fingerprint", s0, s1)
		t.record(0, root, id, "snapshot.load", s1, s2)
		t.record(0, root, id, "snapshot.restore", s2, s3)
		t.record(0, root, id, "core.first_query", s3, s4)
		t.record(root, 0, id, "warm.split", s0, s4)
		fpD += s1.Sub(s0)
		loadD += s2.Sub(s1)
		restoreD += s3.Sub(s2)
		firstD += s4.Sub(s3)
	}
	layers["snapshot.fingerprint_s"] = fpD.Seconds()
	layers["snapshot.load_s"] = loadD.Seconds()
	layers["snapshot.restore_s"] = restoreD.Seconds()
	layers["core.first_query_s"] = firstD.Seconds()
	return nil
}

// coldPhases rebuilds every function once more through the public phase
// functions the engine's build runs, one span each: ir.Verify,
// cfg.FromFunc, cfg.NewDFS, dom.Iterative, core.NewFrom (R and T),
// snapshot.Capture, Snapshot.Encode and snapshot.Store.Save (which encodes
// again and writes).
func coldPhases(dir string, funcs []*ir.Func, t *tracer, layers map[string]float64) error {
	st, err := snapshot.Open(dir, 0)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := core.Options{}
	for id, f := range funcs {
		root := t.id()
		s0 := time.Now()
		if err := ir.Verify(f); err != nil {
			return err
		}
		s1 := time.Now()
		g, index := cfg.FromFunc(f)
		s2 := time.Now()
		d := cfg.NewDFS(g)
		s3 := time.Now()
		tree := dom.Iterative(g, d)
		s4 := time.Now()
		c := core.NewFrom(g, d, tree, opts)
		s5 := time.Now()
		snap, err := snapshot.Capture(&backend.Prep{F: f, Graph: g, Index: index, DFS: d, Tree: tree}, c)
		if err != nil {
			return err
		}
		s6 := time.Now()
		if _, err := snap.Encode(); err != nil {
			return err
		}
		s7 := time.Now()
		if err := st.Save(snap); err != nil {
			return err
		}
		s8 := time.Now()
		for _, p := range []struct {
			name string
			a, b time.Time
		}{
			{"ir.verify", s0, s1}, {"cfg.graph", s1, s2}, {"cfg.dfs", s2, s3}, {"dom.tree", s3, s4},
			{"core.rt", s4, s5}, {"snapshot.capture", s5, s6}, {"snapshot.encode", s6, s7}, {"snapshot.save", s7, s8},
		} {
			t.record(0, root, id, p.name, p.a, p.b)
			layers[p.name+"_s"] += p.b.Sub(p.a).Seconds()
		}
		t.record(root, 0, id, "cold.split", s0, s8)
	}
	return nil
}
