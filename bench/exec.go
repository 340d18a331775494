package main

import (
	"fmt"
	"runtime"
	"slices"

	"pctwm/internal/axiom"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/harness"
	"pctwm/internal/telemetry"
)

// abnormalKey classifies explorer leaves that ended in an engine error.
const abnormalKey = "!abnormal"

// cellStats is what one cell reports for one run of its trials.
type cellStats struct {
	trials, events, hits int64
	// failed counts step-limit aborts, timeouts, panics and cancellations
	// (errored leaves for explore cells).
	failed           int64
	engineNs, wallNs int64 // Σ Outcome.Duration; wall time of the whole cell
	behaviors        int   // distinct behaviours (fingerprints or litmus outcomes)
	tel              *telemetry.EngineCounters

	axiomExecs, axiomEvents int64
	buildNs, checkNs        int64
	violations, buildErrs   int

	outcomes map[string]int // classified outcomes of keyed cells
	complete bool           // explore: the tree was exhausted
	drift    error
}

func (s *cellStats) add(o cellStats) {
	s.trials += o.trials
	s.events += o.events
	s.hits += o.hits
	s.failed += o.failed
	s.engineNs += o.engineNs
	s.wallNs += o.wallNs
	s.behaviors += o.behaviors
	s.axiomExecs += o.axiomExecs
	s.axiomEvents += o.axiomEvents
	s.buildNs += o.buildNs
	s.checkNs += o.checkNs
	s.violations += o.violations
	s.buildErrs += o.buildErrs
	if o.tel != nil {
		if s.tel == nil {
			s.tel = &telemetry.EngineCounters{}
		}
		s.tel.Merge(o.tel)
	}
}

// runEnv carries the optional instruments of a run: the tracer (nil when
// untraced) and the per-trial times (nil when not collected).
type runEnv struct {
	tr *tracer
	tm *timings
	st *stratStats // strategy call totals of traced runs
}

func (x *runEnv) trial(start, end int64, o *engine.Outcome) {
	if x.tm != nil {
		x.tm.lat = append(x.tm.lat, end-start)
		x.tm.eng = append(x.tm.eng, o.Duration.Nanoseconds())
	}
}

// timings are the times of one rep in the order they were taken: each
// trial's latency as the caller sees it and its engine time
// (Outcome.Duration), and each cell's time outside its trials (campaign
// start-up and wind-down), so that the latencies and rest of a rep add up
// to its wall time.
type timings struct {
	lat, eng, rest []int64
}

func (t *timings) reset() {
	t.lat, t.eng, t.rest = t.lat[:0], t.eng[:0], t.rest[:0]
}

// keepMin lowers every time of m to the same time of t where t's is
// smaller; an empty m takes t's times. Reps of the same seeds run the
// same trials in the same order, so the i-th times of two reps belong to
// the same trial.
func (m *timings) keepMin(t *timings) error {
	if len(m.lat) == 0 && len(m.rest) == 0 {
		m.lat, m.eng, m.rest = slices.Clone(t.lat), slices.Clone(t.eng), slices.Clone(t.rest)
		return nil
	}
	if len(t.lat) != len(m.lat) || len(t.rest) != len(m.rest) {
		return fmt.Errorf("a rep timed %d trials in %d cells, an earlier one %d in %d",
			len(t.lat), len(t.rest), len(m.lat), len(m.rest))
	}
	for _, p := range [][2][]int64{{m.lat, t.lat}, {m.eng, t.eng}, {m.rest, t.rest}} {
		for i, v := range p[1] {
			p[0][i] = min(p[0][i], v)
		}
	}
	return nil
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// checkAxioms rebuilds a recorded execution as an axiom graph and checks
// it against its model, timing both steps.
func (x *runEnv) checkAxioms(s *cellStats, o *engine.Outcome, model string) {
	t0 := nanotime()
	if x.tr != nil {
		x.tr.open("axiom.FromRecording", "", false)
	}
	g, err := axiom.FromRecording(o.Recording)
	t1 := nanotime()
	if x.tr != nil {
		x.tr.close()
	}
	s.axiomExecs++
	s.axiomEvents += int64(o.Events)
	s.buildNs += t1 - t0
	if err != nil {
		s.buildErrs++
		return
	}
	if x.tr != nil {
		x.tr.open("axiom.CheckModel", "", false)
	}
	vs := g.CheckModel(model)
	s.checkNs += nanotime() - t1
	if x.tr != nil {
		x.tr.close()
	}
	s.violations += len(vs)
}

// wantAxioms reports whether the next recorded execution gets checked.
func wantAxioms(set setting, s *cellStats) bool {
	return set.opts.Record && (set.axiomCap < 0 || s.axiomExecs < int64(set.axiomCap))
}

// engineOpts are set's engine options with its switches applied; the
// counters are non-nil when set collects telemetry.
func engineOpts(set setting) (engine.Options, *telemetry.EngineCounters) {
	opts := set.opts
	opts.Coverage = set.coverage
	var tel *telemetry.EngineCounters
	if set.telemetry {
		tel = &telemetry.EngineCounters{}
		opts.Telemetry = tel
	}
	return opts, tel
}

// runCell runs n trials of c under set, seeded from seed on (for explore
// cells n caps the leaves, 0 = exhaustive, and there are no seeds). fresh
// runs runner cells on a new Runner instead of the warmed one, as any
// setting other than the base needs.
func runCell(c *cell, set setting, n int, seed int64, fresh bool, x *runEnv) cellStats {
	var s cellStats
	var first int
	if x.tm != nil {
		first = len(x.tm.lat)
	}
	start := nanotime()
	switch c.kind {
	case campaignCell:
		s = runCampaignCell(c, set, n, seed, x)
	case runnerCell:
		s = runRunnerCell(c, set, n, seed, fresh, x)
	case exploreCell:
		s = runExploreCell(c, set, n, x)
	}
	s.wallNs = nanotime() - start
	if x.tm != nil {
		x.tm.rest = append(x.tm.rest, s.wallNs-sum(x.tm.lat[first:]))
	}
	return s
}

func runCampaignCell(c *cell, set setting, n int, seed int64, x *runEnv) cellStats {
	var s cellStats
	newStrategy := c.newStrategy
	if x.tr != nil {
		newStrategy = func() engine.Strategy { return x.tr.wrap(c.newStrategy(), x.st, true) }
		x.tr.open("harness.RunCampaign", c.name, true)
	}
	last := nanotime()
	detect := func(o *engine.Outcome) bool {
		now := nanotime()
		x.trial(last, now, o)
		last = now
		hit := c.detect(o)
		if wantAxioms(set, &s) {
			x.checkAxioms(&s, o, c.model())
		}
		if x.tr != nil {
			x.tr.closeTrial()
		}
		return hit
	}
	res := harness.RunCampaign(c.prog, detect, newStrategy, n, seed, set.opts,
		harness.Campaign{Workers: 1, Coverage: set.coverage, Telemetry: set.telemetry})
	if x.tr != nil {
		x.tr.closeTrial()
		x.tr.close()
	}
	s.trials = int64(res.Runs)
	s.events = int64(res.TotalEvents)
	s.hits = int64(res.Hits)
	s.failed = int64(res.Aborted + res.Timeouts + res.Panics + res.Canceled)
	s.engineNs = res.Elapsed.Nanoseconds()
	s.behaviors = res.Coverage.Len()
	s.tel = res.Telemetry
	return s
}

func runRunnerCell(c *cell, set setting, n int, seed int64, fresh bool, x *runEnv) cellStats {
	var s cellStats
	r, strat := c.runner, c.strat
	if fresh {
		var opts engine.Options
		opts, s.tel = engineOpts(set)
		r = engine.NewRunner(c.prog, opts)
		defer r.Close()
		strat = c.newStrategy()
	}
	var seen map[uint64]bool
	if set.coverage {
		seen = make(map[uint64]bool)
	}
	if c.lt != nil {
		s.outcomes = make(map[string]int)
	}
	if x.tr != nil {
		strat = x.tr.wrap(strat, x.st, false)
		x.tr.open("bench.trial_loop", c.name, true)
	}
	for i := range n {
		t0 := nanotime()
		if x.tr != nil {
			x.tr.openTrial()
			x.tr.open("engine.Runner.Run", "", false)
		}
		o := r.Run(strat, seed+int64(i))
		if x.tr != nil {
			x.tr.close()
		}
		s.trials++
		s.events += int64(o.Events)
		s.engineNs += o.Duration.Nanoseconds()
		if o.Aborted || o.TimedOut || o.Canceled {
			s.failed++
		}
		key, hit := c.classify(o)
		if hit {
			s.hits++
		}
		if s.outcomes != nil {
			s.outcomes[key]++
		}
		if seen != nil && o.Err == nil {
			seen[o.BehaviorFP] = true
		}
		if wantAxioms(set, &s) {
			x.checkAxioms(&s, o, c.model())
		}
		if x.tr != nil {
			x.tr.closeTrial()
		}
		x.trial(t0, nanotime(), o)
	}
	if x.tr != nil {
		x.tr.close()
	}
	s.behaviors = len(seen)
	if seen == nil {
		s.behaviors = len(s.outcomes)
	}
	return s
}

func runExploreCell(c *cell, set setting, limit int, x *runEnv) cellStats {
	var s cellStats
	opts, tel := engineOpts(set)
	s.tel = tel
	var fps map[uint64]bool
	if set.coverage {
		fps = make(map[uint64]bool)
	}
	var leafAgg *spanAgg
	if x.tr != nil {
		leafAgg = x.tr.agg("enumerate.leaf")
		x.tr.open("enumerate.Outcomes", c.name, true)
	}
	last := nanotime()
	key := func(o *engine.Outcome) string {
		now := nanotime()
		x.trial(last, now, o)
		if x.tr != nil {
			x.tr.leafTrial(leafAgg, "enumerate.leaf", last, now)
		}
		last = now
		s.events += int64(o.Events)
		s.engineNs += o.Duration.Nanoseconds()
		if o.Err != nil {
			s.failed++
			return abnormalKey
		}
		k, hit := c.classify(o)
		if hit {
			s.hits++
		}
		if fps != nil {
			fps[o.BehaviorFP] = true
		}
		if wantAxioms(set, &s) {
			x.checkAxioms(&s, o, c.model())
		}
		return k
	}
	counts, res := enumerate.Outcomes(c.prog, opts, enumerate.Config{Workers: 1, Limit: limit}, key)
	if x.tr != nil {
		x.tr.close()
	}
	s.trials = int64(res.Runs)
	s.complete = res.Complete
	if res.Drift != nil {
		s.drift = res.Drift
	}
	s.outcomes = counts
	s.behaviors = len(fps)
	if fps == nil {
		s.behaviors = len(counts)
	}
	return s
}

// repStats is one rep: every cell once.
type repStats struct {
	cells   []cellStats
	wallNs  int64
	mallocs uint64
}

func (r repStats) total() cellStats {
	var t cellStats
	for _, c := range r.cells {
		t.add(c)
	}
	return t
}

// runRep runs every cell of the workload once at its base setting, on
// the cell's own seeds, so that every rep runs the same trials. The heap
// is collected first so that reps start alike; the allocation count
// covers the rep alone.
func runRep(cells []*cell, x *runEnv) repStats {
	if x.tm != nil {
		x.tm.reset()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if x.tr != nil {
		x.tr.open("bench.rep", "", true)
	}
	start := nanotime()
	r := repStats{cells: make([]cellStats, len(cells))}
	for i, c := range cells {
		r.cells[i] = runCell(c, c.base, c.trials, c.seed, false, x)
	}
	r.wallNs = nanotime() - start
	if x.tr != nil {
		x.tr.close()
	}
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	return r
}
