package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fastliveness"
	"fastliveness/internal/ir"
)

// span is one traced interval. Spans of one function share Fn (its index in
// the workload's corpus, -1 for none); Parent is the span that caused this
// one (0 for a root). An aggregate span stands for many short calls — the
// oracle queries of one pass, say — and carries their summed busy time and
// their count instead of one record per call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Fn     int    `json:"fn"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns,omitempty"`
	Count  int64  `json:"count,omitempty"`
	// Proc is 0 for the benchmark process and k for its k-th traced
	// child; times count from the start of the recording process.
	Proc int `json:"proc,omitempty"`
}

// busy is the time the span's layer was working: the summed calls of an
// aggregate span, the whole interval of any other.
func (s span) busy() int64 {
	if s.Count > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: engine callbacks arrive from rebuild workers.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// id reserves a span ID so children can name their parent before the
// parent's own interval is known.
func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved id (0 reserves one).
func (t *tracer) record(id, parent int64, fn int, name string, start, end time.Time) int64 {
	return t.recordAgg(id, parent, fn, name, start, end, 0, 0)
}

// recordAgg stores an aggregate span: count calls that were busy for busy
// in total between start and end.
func (t *tracer) recordAgg(id, parent int64, fn int, name string, start, end time.Time, busy time.Duration, count int64) int64 {
	if id == 0 {
		id = t.id()
	}
	s := span{ID: id, Parent: parent, Fn: fn, Name: name, Start: t.ns(start), End: t.ns(end), Busy: busy.Nanoseconds(), Count: count}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// merge adds a child process's spans under fresh IDs.
func (t *tracer) merge(spans []span, proc int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.next
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Proc = proc
		t.spans = append(t.spans, s)
		t.next = max(t.next, s.ID)
	}
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTimes sums, per span name, the busy time and the self time: busy
// time minus the part covered by the span's children.
func (t *tracer) layerTimes() (busy, self map[string]time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.busy()
		}
	}
	busy = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	for _, s := range t.spans {
		busy[s.Name] += time.Duration(s.busy())
		self[s.Name] += time.Duration(s.busy() - child[s.ID])
	}
	return busy, self
}

// write stores every span as one JSON object per line, in start order.
func (t *tracer) write(path string) error {
	spans := t.all()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// engineTracer records the engine's lifecycle events as spans. Builds,
// batches and snapshot loads are parented to the caller's current span
// (set with enter) when they run on the caller's goroutine; those the
// rebuild pool runs get no parent. The engine calls it under its own
// locks, so every callback only appends.
type engineTracer struct {
	fastliveness.NopTracer
	t    *tracer
	fnID map[string]int // function name -> corpus index; read-only
	// aggregate folds events into one aggregate span per (event,
	// function), written by flush — for runs with too many events to keep
	// one span each.
	aggregate bool
	mu        sync.Mutex
	cur       int64 // current span of the driving goroutine
	aggs      map[aggKey]*aggSpan
}

type aggKey struct {
	name string
	fn   int
}

type aggSpan struct {
	first, last time.Time
	busy        time.Duration
	n           int64
}

func newEngineTracer(t *tracer, fnID map[string]int) *engineTracer {
	return &engineTracer{t: t, fnID: fnID}
}

// enter makes parent the current span of the driving goroutine.
func (et *engineTracer) enter(parent int64) {
	et.mu.Lock()
	et.cur = parent
	et.mu.Unlock()
}

func (et *engineTracer) parent() int64 {
	et.mu.Lock()
	defer et.mu.Unlock()
	return et.cur
}

func (et *engineTracer) fn(name string) int {
	if id, ok := et.fnID[name]; ok {
		return id
	}
	return -1
}

func (et *engineTracer) past(name, fn string, d time.Duration) {
	end := time.Now()
	if !et.aggregate {
		et.t.record(0, et.parent(), et.fn(fn), name, end.Add(-d), end)
		return
	}
	k := aggKey{name, et.fn(fn)}
	et.mu.Lock()
	defer et.mu.Unlock()
	if et.aggs == nil {
		et.aggs = make(map[aggKey]*aggSpan)
	}
	a := et.aggs[k]
	if a == nil {
		a = &aggSpan{first: end.Add(-d)}
		et.aggs[k] = a
	}
	a.last = end
	a.busy += d
	a.n++
}

// flush records the aggregated events.
func (et *engineTracer) flush() {
	et.mu.Lock()
	defer et.mu.Unlock()
	for k, a := range et.aggs {
		et.t.recordAgg(0, 0, k.fn, k.name, a.first, a.last, a.busy, a.n)
	}
	et.aggs = nil
}

// BuildEnd implements fastliveness.Tracer.
func (et *engineTracer) BuildEnd(fn string, d time.Duration, err error) {
	et.past("engine.build", fn, d)
}

// QueryBatch implements fastliveness.Tracer.
func (et *engineTracer) QueryBatch(fn string, _ int, d time.Duration) { et.past("engine.batch", fn, d) }

// SnapshotLoad implements fastliveness.Tracer.
func (et *engineTracer) SnapshotLoad(fn string, _ bool, d time.Duration) {
	et.past("engine.snapshot_load", fn, d)
}

// SnapshotSave implements fastliveness.Tracer.
func (et *engineTracer) SnapshotSave(_ bool, d time.Duration) { et.past("engine.snapshot_save", "", d) }

// fnIndex maps each function's name to its corpus index.
func fnIndex(funcs []*ir.Func) map[string]int {
	m := make(map[string]int, len(funcs))
	for i, f := range funcs {
		m[f.Name] = i
	}
	return m
}

// finishTrace prints each span name's busy and self time, writes the
// span file and names it.
func finishTrace(e *env, t *tracer) error {
	busy, self := t.layerTimes()
	spanNames := make([]string, 0, len(busy))
	for name := range busy {
		spanNames = append(spanNames, name)
	}
	sort.Strings(spanNames)
	for _, name := range spanNames {
		e.rep.printf("span %-24s busy %10.6f s  self %10.6f s", name, busy[name].Seconds(), self[name].Seconds())
	}
	path := filepath.Join(e.traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", e.workload, e.seed))
	if err := t.write(path); err != nil {
		return err
	}
	e.rep.printf("spans: %s", path)
	return nil
}
