// Command perfbench is the repository's benchmark: one program that drives
// the liveness system through its three client paths — the compiler pass
// pipeline (compile), process start through the snapshot tier (restart)
// and a long-lived engine under edits (serve) — and prints end-to-end
// metrics, or, with -trace 1, per-layer metrics taken from spans around
// calls into each layer's public functions. It adds no code to the
// program it measures. See README.md for the metric definitions and the
// span file format.
//
//	bash perfbench/run.sh --workload compile --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// The end-to-end metrics every workload reports. Each workload maps its
// own quantities onto them; README.md has the table.
const (
	mSetup   = "setup_s"
	mJob     = "job_s"
	mOpP50   = "op_p50_ms"
	mOpTail  = "op_tail_ms"
	mPeakRSS = "peak_rss_mb"
)

// perLayer lists every per-layer metric with its unit. A traced run
// prints all of them; a layer the workload bypasses reads 0. README.md
// says which end-to-end metric each should move, on which workload.
var perLayer = []struct{ name, unit string }{
	// compile
	{"ssa.construct_s", "s"}, {"destruct.s", "s"}, {"destruct.queries", "count"},
	{"regalloc.s", "s"}, {"regalloc.self_s", "s"}, {"regalloc.rounds", "count"}, {"regalloc.spills", "count"},
	{"oracle.queries", "count"}, {"oracle.s", "s"}, {"oracle.ns_per_query", "ns"},
	// engine, on every workload
	{"engine.builds", "count"}, {"engine.rebuilds", "count"}, {"engine.build_s", "s"},
	// restart, cold side
	{"ir.verify_s", "s"}, {"cfg.graph_s", "s"}, {"cfg.dfs_s", "s"}, {"dom.tree_s", "s"}, {"core.rt_s", "s"},
	{"snapshot.capture_s", "s"}, {"snapshot.encode_s", "s"}, {"snapshot.save_s", "s"},
	{"snapshot.stores", "count"}, {"snapshot.stored_bytes", "bytes"},
	// restart, warm side
	{"snapshot.fingerprint_s", "s"}, {"snapshot.load_s", "s"}, {"snapshot.restore_s", "s"},
	{"snapshot.hits", "count"}, {"snapshot.section_scans", "count"}, {"snapshot.section_skips", "count"},
	{"core.first_query_s", "s"}, {"proc.minor_faults", "count"},
	// serve
	{"engine.batch_s", "s"}, {"engine.refills", "count"}, {"engine.resident", "count"},
	{"snapshot.decoded_cache_hits", "count"}, {"snapshot.decoded_cache_misses", "count"}, {"engine.snapshot_load_s", "s"},
	{"rebuild.background", "count"}, {"rebuild.enqueues", "count"}, {"rebuild.discards", "count"},
	{"edit.p99_us", "us"}, {"mutator.lag_ms", "ms"},
	// every workload
	{"go.alloc_mb", "MB"}, {"go.gc_count", "count"}, {"go.gc_pause_ms", "ms"},
	{"trace.overhead_s", "s"}, {"trace.overhead_ratio", "ratio"},
}

func layerUnit(name string) (string, bool) {
	for _, l := range perLayer {
		if l.name == name {
			return l.unit, true
		}
	}
	return "", false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects what one run prints: named lines for people, the
// gated end-to-end metrics, the per-layer metrics, and the correctness
// tally.
type report struct {
	out       io.Writer
	endToEnd  map[string]metric
	layers    map[string]metric
	attempted int64
	failed    int64
	shown     int
}

func newReport(out io.Writer) *report {
	return &report{out: out, endToEnd: map[string]metric{}, layers: map[string]metric{}}
}

func (r *report) printf(format string, args ...any) { fmt.Fprintf(r.out, format+"\n", args...) }

// named prints one of the workload's own metrics by name, with its unit.
func (r *report) named(name string, v float64, unit string) {
	r.printf("%-28s %14.6g %s", name, v, unit)
}

func (r *report) gate(name string, v float64, unit string) { r.endToEnd[name] = metric{v, unit} }

// layer records a per-layer metric of the perLayer table.
func (r *report) layer(name string, v float64) {
	unit, ok := layerUnit(name)
	if !ok {
		panic("perfbench: per-layer metric " + name + " is not in the perLayer table")
	}
	r.layers[name] = metric{v, unit}
}

// layerMetrics is every per-layer metric, 0 for the layers this run
// bypassed.
func (r *report) layerMetrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		out[l.name] = metric{0, l.unit}
	}
	for k, v := range r.layers {
		out[k] = v
	}
	return out
}

// check counts one checked operation; a false ok counts as a failure and
// the first few are described on standard error.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if r.shown < 10 {
		r.shown++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// fail counts an error as a failed operation.
func (r *report) fail(err error) { r.check(false, "%v", err) }

// env is what a workload run gets from the command line.
type env struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	size     string // "full", or "tiny" for the benchmark's own test
	work     string // this run's working directory, under .bench_build
	traceDir string
	exe      string
	rep      *report
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "compile, restart or serve")
	seed := fs.Int64("seed", 1, "workload seed: the inputs are a function of it")
	seconds := fs.Float64("seconds", 10, "measurement time")
	traceFlag := fs.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	root := fs.String("root", ".", "checkout root; the run's files go under its .bench_build")
	size := fs.String("size", "full", "input size: full, or tiny for tests")
	child := fs.String("child", "", "internal: run one restart start (cold or warm) as a child process")
	store := fs.String("store", "", "internal: the start child's snapshot store")
	program := fs.String("program", "", "internal: the start child's program, printed IR as a JSON list")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return startChildMain(*child, *store, *program, *seed, *size, *traceFlag == 1, stdout)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *size != "full" && *size != "tiny" {
		fmt.Fprintln(os.Stderr, "perfbench: -size must be full or tiny")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	base, err := filepath.Abs(filepath.Join(*root, ".bench_build"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	traceDir := filepath.Join(base, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(base, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	rep := newReport(stdout)
	e := &env{
		workload: *workload, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *traceFlag == 1, size: *size, work: work, traceDir: traceDir, exe: exe, rep: rep,
	}
	rep.printf("perfbench workload=%s seed=%d seconds=%g trace=%d size=%s gomaxprocs=%d nproc=%d %s",
		e.workload, e.seed, *seconds, *traceFlag, e.size, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	switch e.workload {
	case "compile":
		err = runCompile(e)
	case "restart":
		err = runRestart(e)
	case "serve":
		err = runServe(e)
	default:
		err = fmt.Errorf("unknown workload %q (want compile, restart or serve)", e.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	errorRate := 0.0
	if rep.attempted > 0 {
		errorRate = float64(rep.failed) / float64(rep.attempted)
	}
	rep.named("error_rate", errorRate, "ratio")
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.endToEnd}
	if e.trace {
		res.Metrics = rep.layerMetrics()
	}
	if rep.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was checked")
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// medianSetup runs setup reps times and returns the median duration; the
// last rep's state is the one the workload keeps. teardown, if not nil,
// releases a rep's state before the next rep, outside the clock.
func medianSetup(r *report, reps int, setup func() error, teardown func()) (float64, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		settle()
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	r.printf("setup: %d set-ups %.4g s", reps, ds)
	return median(ds), nil
}

// settle flushes dirty pages left by earlier work, so write-back does
// not land inside the next clock, and collects garbage.
func settle() {
	syscall.Sync()
	runtime.GC()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, the median and the third quartile.
func quartiles(xs []float64) []float64 {
	return []float64{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

// peakRSSMB is this process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// residentMB is this process's resident set in MB, from VmRSS.
func residentMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return math.NaN()
}

func minorFaults() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Minflt
}

// memDelta is the Go heap traffic of a timed section.
type memDelta struct{ before, after runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) stop() { runtime.ReadMemStats(&m.after) }

// values are go.alloc_mb, go.gc_count and go.gc_pause_ms between start
// and stop.
func (m *memDelta) values() map[string]float64 {
	return map[string]float64{
		"go.alloc_mb":    float64(m.after.TotalAlloc-m.before.TotalAlloc) / 1e6,
		"go.gc_count":    float64(m.after.NumGC - m.before.NumGC),
		"go.gc_pause_ms": float64(m.after.PauseTotalNs-m.before.PauseTotalNs) / 1e6,
	}
}

func (m *memDelta) layers(r *report) {
	for k, v := range m.values() {
		r.layer(k, v)
	}
}

// layerTimes copies span sums into per-layer metrics: for each span name
// in names, the metric gets the busy time summed over the run (the self
// time for a .self_s metric).
func layerTimes(r *report, t *tracer, names map[string]string) {
	busy, self := t.layerTimes()
	for metricName, spanName := range names {
		d := busy[spanName]
		if strings.HasSuffix(metricName, ".self_s") {
			d = self[spanName]
		}
		r.layer(metricName, d.Seconds())
	}
}

// overhead reports the tracing overhead: the traced minus the untraced
// value of the workload's job metric, absolute and as a share.
func overhead(r *report, traced, untraced float64) {
	r.named("trace.overhead_s", traced-untraced, "s")
	r.layer("trace.overhead_s", traced-untraced)
	r.layer("trace.overhead_ratio", (traced-untraced)/untraced)
}
