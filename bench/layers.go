package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/harness"
)

// runTraced measures the per-layer metrics of a workload:
//
//   - untraced, traced and untraced reps of the workload's own cells: the
//     trace itself, engine and harness self time, and the tracing
//     overhead (the reps must agree exactly);
//   - a strategy probe: every program of the workload under random, pct
//     and pctwm with each strategy call timed;
//   - an explorer probe: the programs explored with enumerate, beside
//     plain Runner trials of the same programs;
//   - ablation rounds: the cells re-run with one layer switched at a
//     time on the same seeds, until the measuring time is spent.
func runTraced(w *workload, cfg config) (*result, error) {
	res := newResult(w, cfg)
	start := nanotime()
	cells := prepare(w, cfg.seed, cfg.scale)
	defer closeCells(cells)

	tr := newTracer()
	repCalls := &stratStats{}
	plain := &runEnv{}
	u1 := runRep(cells, plain)
	traced := runRep(cells, &runEnv{tr: tr, st: repCalls})
	u2 := runRep(cells, plain)
	for _, r := range []repStats{u1, traced, u2} {
		t := r.total()
		res.Attempted += t.trials
		res.Failed += t.failed
	}
	res.Failures = append(res.Failures, repsAgree("reps-deterministic", u1, u2, 2)...)
	res.Failures = append(res.Failures, repsAgree("trace-transparent", u1, traced, 1)...)
	res.Failures = append(res.Failures, w.check(cells, u1.cells)...)

	p := strategyProbe(cells, tr, cfg.scale)
	e := explorerProbe(w, cells, cfg.scale)
	ab, fails := ablate(w, cells, cfg.scale, start+int64(cfg.seconds*1e9))
	res.Failures = append(res.Failures, fails...)

	// engine: the untraced cost per event less the strategy's own share
	// (measured in the traced rep on the same schedules).
	u := u1.total()
	u.add(u2.total())
	tt := traced.total()
	res.add("engine.ns_per_event", div(u.engineNs, u.events)-div(repCalls.selfNs(tr.timerNs), tt.events))
	counters := ab["counters"][0]
	tel := counters.tel
	res.add("engine.handoff_frac", div(tel.Handoffs, tel.Handoffs+tel.SameThreadGrants))
	res.add("engine.rf_candidates_mean", tel.RFCandidates.Mean())
	res.add("engine.events_per_trial", div(u.events, u.trials))
	deltas := func(name, on, off string) {
		for i := range ab[on] {
			res.add(name, ab[on][i].nsPerEvent()-ab[off][i].nsPerEvent())
		}
	}
	deltas("engine.backend_ns_per_event.rc11", "rc11", "sc")
	deltas("engine.backend_ns_per_event.tso", "tso", "sc")
	deltas("engine.record_ns_per_event", "record_on", "record_off")

	// core: strategy self time, calibrated timer cost removed per call.
	var all stratStats
	for _, s := range strategyNames {
		st := p.stats[s]
		res.add("core.ns_per_event."+s, div(st.selfNs(tr.timerNs), p.events[s]))
		for m := range nMethods {
			all.calls[m] += st.calls[m]
			all.ns[m] += st.ns[m]
		}
	}
	perCall := func(m int) float64 {
		return div(float64(all.ns[m])-tr.timerNs*float64(all.calls[m]), all.calls[m])
	}
	res.add("core.next_thread_ns", perCall(mNextThread))
	res.add("core.pick_read_ns", perCall(mPickRead))
	res.add("core.on_event_ns", perCall(mOnEvent))
	res.add("core.pick_read_per_trial", div(all.calls[mPickRead], p.trials))
	res.add("core.change_points_per_trial", div(tel.ChangePointDepth.Count, counters.trials))

	deltas("race.ns_per_event", "races_on", "races_off")
	res.add("race.checks_per_trial", div(tel.RaceChecks, counters.trials))
	deltas("coverage.ns_per_event", "coverage_on", "coverage_off")
	res.add("coverage.behaviors", float64(ab["coverage_on"][0].behaviors))
	deltas("telemetry.ns_per_event", "telemetry", "off")

	// harness: wall time outside the engine's timed execution and the
	// axiom checks, per trial.
	res.add("harness.ns_per_trial", div(u.wallNs-u.engineNs-u.buildNs-u.checkNs, u.trials))
	res.add("harness.estimate_s", float64(p.estimateNs)/1e9)

	for _, r := range ab["record_on"] {
		res.add("axiom.build_ns_per_exec", div(r.buildNs, r.axiomExecs))
		res.add("axiom.check_ns_per_exec", div(r.checkNs, r.axiomExecs))
		res.add("axiom.ns_per_event", div(r.buildNs+r.checkNs, r.axiomEvents))
	}

	res.add("enumerate.runs", float64(e.runs))
	res.add("enumerate.runs_per_behavior", div(e.runs, e.behaviors))
	res.add("enumerate.ns_per_run", div(e.ns, e.runs))
	res.add("enumerate.allocs_per_run", div(e.mallocs, e.runs))
	res.add("enumerate.plain_allocs_per_trial", div(e.plainMallocs, e.plainTrials))

	res.add("trace.timer_ns", tr.timerNs)
	res.add("trace.overhead_frac", div(2*traced.wallNs, u1.wallNs+u2.wallNs)-1)

	if err := writeLayers(cfg.traceDir, w, cfg, tr, res, ab); err != nil {
		return nil, err
	}
	return res, nil
}

// uniquePrograms returns one representative cell per program and model.
func uniquePrograms(cells []*cell) []*cell {
	type key struct {
		prog  *engine.Program
		model string
	}
	seen := make(map[key]bool)
	var out []*cell
	for _, c := range cells {
		k := key{c.prog, c.model()}
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// probeTrials is the per-strategy trial count of the probes: a quarter
// of a cell's rep, or 200 runs for explore cells.
func probeTrials(c *cell, scale float64) int {
	if c.kind == exploreCell {
		return scaled(200, scale)
	}
	return max(1, c.trials/4)
}

// probeOpts are a program's base options without recording.
func probeOpts(c *cell) engine.Options {
	opts := c.base.opts
	opts.Record = false
	return opts
}

type probeResult struct {
	stats      map[string]*stratStats
	events     map[string]int64
	trials     int64
	estimateNs int64
}

// strategyProbe runs every program of the workload under each strategy
// on a plain Runner loop with every strategy call timed. It also times
// the parameter estimate each program needs.
func strategyProbe(cells []*cell, tr *tracer, scale float64) probeResult {
	p := probeResult{stats: make(map[string]*stratStats), events: make(map[string]int64)}
	for _, s := range strategyNames {
		p.stats[s] = &stratStats{}
	}
	for _, u := range uniquePrograms(cells) {
		opts := probeOpts(u)
		t0 := nanotime()
		est := harness.EstimateParams(u.prog, 20, u.seed^0x5eed, opts)
		p.estimateNs += nanotime() - t0
		n := probeTrials(u, scale)
		for _, s := range strategyNames {
			tr.calibrate(256)
			r := engine.NewRunner(u.prog, opts)
			strat := tr.wrap(strategyFactory(s, u.depth)(est), p.stats[s], false)
			tr.open("bench.probe", u.name+"/"+s, true)
			for i := range n {
				tr.openTrial()
				tr.open("engine.Runner.Run", "", false)
				o := r.Run(strat, u.seed+int64(i))
				tr.close()
				tr.closeTrial()
				p.events[s] += int64(o.Events)
			}
			tr.close()
			r.Close()
			p.trials += int64(n)
		}
	}
	return p
}

type explorerResult struct {
	runs, behaviors, ns int64
	mallocs             uint64
	plainTrials         int64
	plainMallocs        uint64
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// explorerProbe explores every program of the workload (up to the
// workload's leaf cap) with a classification that allocates nothing, and
// runs the same programs as plain Runner trials: the two allocation
// counts separate the explorer's own allocations from the engine's.
func explorerProbe(w *workload, cells []*cell, scale float64) explorerResult {
	limit := exploreCap(scale)
	if w.enumCap > 0 {
		limit = scaled(w.enumCap, scale)
	}
	var e explorerResult
	for _, u := range uniquePrograms(cells) {
		opts := probeOpts(u)
		opts.Coverage = true
		fps := make(map[uint64]bool)
		m0, t0 := mallocs(), nanotime()
		_, r := enumerate.Outcomes(u.prog, opts, enumerate.Config{Workers: 1, Limit: limit}, func(o *engine.Outcome) string {
			if o.Err == nil {
				fps[o.BehaviorFP] = true
			}
			return ""
		})
		e.ns += nanotime() - t0
		e.mallocs += mallocs() - m0
		e.runs += int64(r.Runs)
		e.behaviors += int64(len(fps))

		runner := engine.NewRunner(u.prog, opts)
		s := core.NewRandom()
		runner.Run(s, u.seed-1)
		n := probeTrials(u, scale)
		m0 = mallocs()
		for i := range n {
			runner.Run(s, u.seed+int64(i))
		}
		e.plainMallocs += mallocs() - m0
		e.plainTrials += int64(n)
		runner.Close()
	}
	return e
}

// variant switches layers of a cell's base setting. sameSchedule
// variants must run exactly the base's trials and events; the model
// variants change the semantics and are exempt.
type variant struct {
	name         string
	sameSchedule bool
	apply        func(s setting, w *workload) setting
}

// allOff switches every optional layer off: races, recording, coverage
// and telemetry.
func allOff(s setting) setting {
	s.opts.DetectRaces, s.opts.Record, s.coverage, s.telemetry = false, false, false, false
	return s
}

func withModel(m string) func(setting, *workload) setting {
	return func(s setting, _ *workload) setting {
		s = allOff(s)
		s.opts.Model = m
		return s
	}
}

var variants = []variant{
	{"off", true, func(s setting, _ *workload) setting { return allOff(s) }},
	{"telemetry", true, func(s setting, _ *workload) setting { s = allOff(s); s.telemetry = true; return s }},
	{"counters", true, func(s setting, _ *workload) setting { s.telemetry = true; return s }},
	{"races_on", true, func(s setting, _ *workload) setting { s.opts.DetectRaces = true; return s }},
	{"races_off", true, func(s setting, _ *workload) setting { s.opts.DetectRaces = false; return s }},
	{"coverage_on", true, func(s setting, _ *workload) setting { s.coverage = true; return s }},
	{"coverage_off", true, func(s setting, _ *workload) setting { s.coverage = false; return s }},
	{"record_on", true, func(s setting, w *workload) setting { s.opts.Record = true; s.axiomCap = w.axiomCap; return s }},
	{"record_off", true, func(s setting, _ *workload) setting { s.opts.Record = false; return s }},
	{"rc11", false, withModel(engine.ModelRC11)},
	{"tso", false, withModel(engine.ModelTSO)},
	{"sc", false, withModel(engine.ModelSC)},
}

// ablationTrials is a fifth of a cell's rep, or 200 leaves per explore
// cell.
func ablationTrials(c *cell, scale float64) int {
	if c.kind == exploreCell {
		n := scaled(200, scale)
		if c.trials > 0 {
			n = min(n, c.trials)
		}
		return n
	}
	return max(1, c.trials/5)
}

func (s cellStats) nsPerEvent() float64 { return div(s.engineNs, s.events) }

// ablate runs rounds of every variant over all cells, rotating the
// variant order each round, until the deadline passes (at least two
// rounds, at most a hundred). It returns each variant's per-round totals and
// the failed checks.
func ablate(w *workload, cells []*cell, scale float64, deadline int64) (map[string][]cellStats, []string) {
	out := make(map[string][]cellStats)
	var fails []string
	for round := 0; round < 2 || (nanotime() < deadline && round < 100); round++ {
		for k := range variants {
			v := variants[(k+round)%len(variants)]
			var tot cellStats
			for _, c := range cells {
				set := c.base
				set.axiomCap = 0
				tot.add(runCell(c, v.apply(set, w), ablationTrials(c, scale), c.seed, true, &runEnv{}))
			}
			out[v.name] = append(out[v.name], tot)
		}
		var same []namedTotals
		for _, v := range variants {
			if v.sameSchedule {
				t := out[v.name][round]
				same = append(same, namedTotals{v.name, t.trials, t.events})
			}
		}
		if err := equalEvents(same); err != nil {
			fails = append(fails, "ablation-equal-events: "+err.Error())
		}
		rec := out["record_on"][round]
		if rec.violations > 0 || rec.buildErrs > 0 {
			fails = append(fails, fmt.Sprintf("axiom-clean: %d violations and %d graph-build errors in %d recorded executions",
				rec.violations, rec.buildErrs, rec.axiomExecs))
		}
	}
	return out, fails
}

type namedTotals struct {
	name           string
	trials, events int64
}

// equalEvents is the ablation guard: variants that only switch layers on
// or off must run identical schedules, or their deltas compare different
// work.
func equalEvents(xs []namedTotals) error {
	for _, x := range xs[1:] {
		if x.trials != xs[0].trials || x.events != xs[0].events {
			return fmt.Errorf("%s ran %d trials with %d events, %s ran %d with %d",
				x.name, x.trials, x.events, xs[0].name, xs[0].trials, xs[0].events)
		}
	}
	return nil
}

// writeLayers writes layers-W.json (per-layer metrics, span aggregates,
// ablation totals) and trace-W.json (the Chrome trace of the spans kept
// in full).
func writeLayers(dir string, w *workload, cfg config, tr *tracer, res *result, ab map[string][]cellStats) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type variantOut struct {
		Rounds     int       `json:"rounds"`
		Trials     int64     `json:"trials"`
		Events     int64     `json:"events"`
		NsPerEvent []float64 `json:"ns_per_event"`
	}
	abOut := make(map[string]variantOut)
	for name, rounds := range ab {
		v := variantOut{Rounds: len(rounds), Trials: rounds[0].trials, Events: rounds[0].events}
		for _, r := range rounds {
			v.NsPerEvent = append(v.NsPerEvent, r.nsPerEvent())
		}
		abOut[name] = v
	}
	metrics := make(map[string]float64)
	for name, xs := range res.samples {
		metrics[name] = median(xs)
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": w.name,
		"seed":     cfg.seed,
		"timer_ns": tr.timerNs,
		"metrics":  metrics,
		"spans":    tr.aggs,
		"ablation": abOut,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding layers: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "layers-"+w.name+".json"), data, 0o644); err != nil {
		return err
	}
	return tr.writeChrome(filepath.Join(dir, "trace-"+w.name+".json"))
}
