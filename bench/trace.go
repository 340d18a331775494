package main

import (
	"cmp"
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// clockBase anchors nanotime: time.Since reads the monotonic clock, so
// every timestamp in the benchmark is a monotonic offset from it.
var clockBase = time.Now()

func nanotime() int64 { return int64(time.Since(clockBase)) }

// sampleEvery is the trial sampling period of full span recording: every
// trial is aggregated, one in sampleEvery is kept span by span.
const sampleEvery = 1024

// spanAgg aggregates every span of one name.
type spanAgg struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

type openSpan struct {
	agg          *spanAgg
	name, detail string
	id, parent   int
	start, child int64
	full         bool
}

// spanRec is one span kept in full for the Chrome trace.
type spanRec struct {
	id, parent   int
	name, detail string
	start, end   int64
}

// tracer keeps the spans of a traced run in memory. Spans nest on a
// stack: a span's self time is its duration minus the time its children
// cover. Coarse spans (reps, cells) are always kept in full; per-trial
// spans are aggregated for every trial and kept in full only inside
// sampled trials.
type tracer struct {
	timerNs float64   // calibrated cost of one timestamp pair
	pairs   []float64 // calibration samples
	aggs    map[string]*spanAgg
	stack   []openSpan
	full    []spanRec
	nextID  int
	trials  int64
	sampled bool
	inTrial bool
}

func newTracer() *tracer {
	t := &tracer{aggs: make(map[string]*spanAgg)}
	t.calibrate(4096)
	return t
}

// calibrate measures n more back-to-back timestamp pairs and updates the
// cost a pair adds to a measured interval: the mean of the middle half of
// all pairs so far, which drops the pairs a preemption stretched.
// Strategy call times are corrected by it. Calibrating in several places
// of a run keeps a burst of machine contention from skewing it.
func (t *tracer) calibrate(n int) {
	for range n {
		a := nanotime()
		b := nanotime()
		t.pairs = append(t.pairs, float64(b-a))
	}
	ds := slices.Clone(t.pairs)
	slices.Sort(ds)
	var sum float64
	mid := ds[len(ds)/4 : 3*len(ds)/4]
	for _, d := range mid {
		sum += d
	}
	t.timerNs = sum / float64(len(mid))
}

func (t *tracer) agg(name string) *spanAgg {
	a := t.aggs[name]
	if a == nil {
		a = &spanAgg{}
		t.aggs[name] = a
	}
	return a
}

// open starts a span nested in the innermost open one.
func (t *tracer) open(name, detail string, coarse bool) {
	s := openSpan{agg: t.agg(name), name: name, detail: detail, full: coarse || t.sampled}
	if n := len(t.stack); n > 0 {
		s.parent = t.stack[n-1].id
	}
	if s.full {
		t.nextID++
		s.id = t.nextID
	}
	s.start = nanotime()
	t.stack = append(t.stack, s)
}

// close ends the innermost open span.
func (t *tracer) close() {
	end := nanotime()
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - s.start
	s.agg.Count++
	s.agg.TotalNs += dur
	s.agg.SelfNs += dur - s.child
	if n > 0 {
		t.stack[n-1].child += dur
	}
	if s.full {
		t.full = append(t.full, spanRec{id: s.id, parent: s.parent, name: s.name, detail: s.detail, start: s.start, end: end})
	}
}

// openTrial starts a trial span and decides whether the trial is sampled.
// A trial left open (its closing hook never ran) is closed first.
func (t *tracer) openTrial() {
	if t.inTrial {
		t.closeTrial()
	}
	t.trials++
	t.sampled = (t.trials-1)%sampleEvery == 0
	t.inTrial = true
	t.open("bench.trial", "", false)
}

func (t *tracer) closeTrial() {
	if !t.inTrial {
		return
	}
	t.close()
	t.inTrial = false
	t.sampled = false
}

// leaf accounts a finished span with no children of its own (a strategy
// call) under the innermost open span.
func (t *tracer) leaf(a *spanAgg, name string, start, end int64) {
	dur := end - start
	a.Count++
	a.TotalNs += dur
	a.SelfNs += dur
	n := len(t.stack)
	if n > 0 {
		t.stack[n-1].child += dur
	}
	if t.sampled {
		t.nextID++
		rec := spanRec{id: t.nextID, name: name, start: start, end: end}
		if n > 0 {
			rec.parent = t.stack[n-1].id
		}
		t.full = append(t.full, rec)
	}
}

// leafTrial accounts one exploration leaf as a trial of its own.
func (t *tracer) leafTrial(a *spanAgg, name string, start, end int64) {
	t.trials++
	t.sampled = (t.trials-1)%sampleEvery == 0
	t.leaf(a, name, start, end)
	t.sampled = false
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans kept in full as a Chrome trace-event file.
func (t *tracer) writeChrome(path string) error {
	recs := slices.Clone(t.full)
	slices.SortFunc(recs, func(a, b spanRec) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(b.end, a.end) // parents before their children
	})
	evs := make([]chromeEvent, 0, len(recs))
	for _, r := range recs {
		args := map[string]any{"id": r.id, "parent": r.parent}
		if r.detail != "" {
			args["cell"] = r.detail
		}
		cat, _, _ := strings.Cut(r.name, ".")
		evs = append(evs, chromeEvent{
			Name: r.name, Cat: cat, Ph: "X",
			Ts: float64(r.start) / 1e3, Dur: float64(r.end-r.start) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Strategy methods the decorator times.
const (
	mBegin = iota
	mNextThread
	mPickRead
	mOnEvent
	mOnThreadStart
	mOnSpin
	nMethods
)

var methodNames = [nMethods]string{
	"core.Begin", "core.NextThread", "core.PickRead",
	"core.OnEvent", "core.OnThreadStart", "core.OnSpin",
}

// stratStats accumulates the raw time (timer cost included) and call
// count of every strategy method.
type stratStats struct {
	calls [nMethods]int64
	ns    [nMethods]int64
}

// selfNs is the total strategy time with the calibrated timer cost taken
// out of every call.
func (s *stratStats) selfNs(timerNs float64) float64 {
	var ns, calls int64
	for m := range nMethods {
		ns += s.ns[m]
		calls += s.calls[m]
	}
	return float64(ns) - timerNs*float64(calls)
}

// timed is a transparent engine.Strategy decorator that times every call
// into the wrapped strategy. With campaign set, Begin also opens the
// trial span (the trial loop itself runs inside harness.RunCampaign,
// whose detect hook closes it).
type timed struct {
	inner    engine.Strategy
	tr       *tracer
	st       *stratStats
	aggs     [nMethods]*spanAgg
	campaign bool
}

func (t *tracer) wrap(s engine.Strategy, st *stratStats, campaign bool) *timed {
	w := &timed{inner: s, tr: t, st: st, campaign: campaign}
	for m := range nMethods {
		w.aggs[m] = t.agg(methodNames[m])
	}
	return w
}

func (w *timed) done(m int, start int64) {
	end := nanotime()
	w.st.calls[m]++
	w.st.ns[m] += end - start
	w.tr.leaf(w.aggs[m], methodNames[m], start, end)
}

func (w *timed) Name() string { return w.inner.Name() }

func (w *timed) Begin(info engine.ProgramInfo, r *rand.Rand) {
	if w.campaign {
		w.tr.openTrial()
	}
	s := nanotime()
	w.inner.Begin(info, r)
	w.done(mBegin, s)
}

func (w *timed) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	s := nanotime()
	tid := w.inner.NextThread(enabled)
	w.done(mNextThread, s)
	return tid
}

func (w *timed) PickRead(rc engine.ReadContext) int {
	s := nanotime()
	i := w.inner.PickRead(rc)
	w.done(mPickRead, s)
	return i
}

func (w *timed) OnEvent(ev *memmodel.Event) {
	s := nanotime()
	w.inner.OnEvent(ev)
	w.done(mOnEvent, s)
}

func (w *timed) OnThreadStart(tid, parent memmodel.ThreadID) {
	s := nanotime()
	w.inner.OnThreadStart(tid, parent)
	w.done(mOnThreadStart, s)
}

func (w *timed) OnSpin(tid memmodel.ThreadID) {
	s := nanotime()
	w.inner.OnSpin(tid)
	w.done(mOnSpin, s)
}
