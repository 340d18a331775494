// Package report regenerates the paper's evaluation artifacts — Tables 1
// through 4 and the data series behind Figures 5 and 6 — as aligned text
// tables, using the harness over the benchmark and application suites.
package report

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"pctwm/internal/apps"
	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/coverage"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/harness"
	"pctwm/internal/litmus"
	"pctwm/internal/telemetry"
)

// ErrInterrupted is returned by a section whose Config.Context was
// canceled mid-generation: whatever rows finished before the cancel have
// been flushed, so the caller holds a partial artifact and should exit
// nonzero instead of treating the output as complete.
var ErrInterrupted = errors.New("report: interrupted")

// Config controls the experiment sizes. The defaults match the paper
// (1000 rounds for the tables, 500 for Figure 6, 10 runs for Table 4);
// smaller values trade precision for speed.
type Config struct {
	// Runs is the number of rounds per configuration for Tables 2-3 and
	// Figure 5.
	Runs int
	// Fig6Runs is the number of rounds per point in Figure 6.
	Fig6Runs int
	// PerfRuns is the number of timed runs per Table 4 cell.
	PerfRuns int
	// MaxH bounds the history-depth search (Tables 2-3 use h ∈ 1..4).
	MaxH int
	// Seed makes the whole report deterministic.
	Seed int64
	// Campaign is the template every trial batch copies (see
	// harness.Campaign): worker count, the context that cancels report
	// generation (sections then return ErrInterrupted after flushing the
	// rows completed so far), repro sink, metrics hub (sections also mark
	// their name as its phase), memory model, coverage and checkpoint
	// spec. Each batch labels its own CheckpointCell. The paper's numbers
	// are defined for rc11: benchmarks whose bugs need weak behaviour
	// report lower (or zero) rates under sc/tso.
	Campaign harness.Campaign
}

// cell is the campaign template for one trial batch, labeled with the
// batch's checkpoint cell: several sections run different strategies
// over the same program/seed/runs, which would otherwise share a
// checkpoint identity.
func (c Config) cell(label string) harness.Campaign {
	camp := c.Campaign
	camp.CheckpointCell = label
	return camp
}

// phase marks the currently generating section on the metrics hub (no-op
// without Metrics).
func (c Config) phase(name string) {
	if c.Campaign.Metrics != nil {
		c.Campaign.Metrics.SetPhase(name)
	}
}

// interrupted reports whether the config's context has been canceled.
func (c Config) interrupted() bool {
	return c.Campaign.Context != nil && c.Campaign.Context.Err() != nil
}

// Default returns the paper-sized configuration.
func Default() Config {
	return Config{Runs: 1000, Fig6Runs: 500, PerfRuns: 10, MaxH: 4, Seed: 20230325}
}

// Quick returns a configuration sized for smoke runs and tests.
func Quick() Config {
	return Config{Runs: 150, Fig6Runs: 100, PerfRuns: 3, MaxH: 2, Seed: 20230325}
}

func (c Config) normalized() Config {
	d := Default()
	if c.Runs <= 0 {
		c.Runs = d.Runs
	}
	if c.Fig6Runs <= 0 {
		c.Fig6Runs = d.Fig6Runs
	}
	if c.PerfRuns <= 0 {
		c.PerfRuns = d.PerfRuns
	}
	if c.MaxH <= 0 {
		c.MaxH = d.MaxH
	}
	return c
}

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

// flush flushes tw and returns err, or the flush error when err is nil.
func flush(tw *tabwriter.Writer, err error) error {
	if ferr := tw.Flush(); err == nil {
		return ferr
	}
	return err
}

// Table1 prints the benchmark inventory: lines of code, measured event
// count k, measured communication event count kcom, and the bug depth d.
func Table1(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	cfg.phase("table1")
	fmt.Fprintln(w, "Table 1: Data structure benchmarks.")
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\tLOC\tk\tkcom\td")
	for _, b := range benchprog.All() {
		if cfg.interrupted() {
			tw.Flush()
			return ErrInterrupted
		}
		opts := b.Options()
		opts.Model = cfg.Campaign.Model
		est := harness.EstimateParams(b.Program(0), 50, cfg.Seed, opts)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", b.Name, benchprog.LOC(b.Name), est.K, est.KCom, b.Depth)
	}
	return tw.Flush()
}

// Table2 prints PCTWM bug hitting rates for bug depths d, d+1, d+2, each
// with the best history depth (paper Table 2).
func Table2(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	cfg.phase("table2")
	fmt.Fprintf(w, "Table 2: PCTWM bug hitting rates (%%) over %d rounds for varying bug depth d.\n", cfg.Runs)
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\td\tRate(d)\tRate(d+1)\tRate(d+2)")
	for _, b := range benchprog.All() {
		cells := make([]string, 3)
		for i := 0; i < 3; i++ {
			res, h := harness.BestOverH(b, b.Depth+i, cfg.MaxH, cfg.Runs, cfg.Seed+int64(17*i),
				cfg.cell(fmt.Sprintf("table2/%s/d%d", b.Name, b.Depth+i)))
			cells[i] = fmt.Sprintf("%.1f (h:%d)", res.Rate(), h)
		}
		if cfg.interrupted() {
			tw.Flush()
			return ErrInterrupted
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\n", b.Name, b.Depth, cells[0], cells[1], cells[2])
	}
	return tw.Flush()
}

// Table3 prints PCTWM bug hitting rates for history depths h = 1..4 at
// each benchmark's Table-3 bug depth (paper Table 3).
func Table3(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	cfg.phase("table3")
	fmt.Fprintf(w, "Table 3: PCTWM bug hitting rates (%%) over %d rounds for varying history depth h.\n", cfg.Runs)
	tw := newTab(w)
	header := "Benchmark\tkcom\td"
	for h := 1; h <= cfg.MaxH; h++ {
		header += fmt.Sprintf("\th:%d", h)
	}
	fmt.Fprintln(tw, header)
	for _, b := range benchprog.All() {
		var est harness.Estimate
		row := make([]string, 0, cfg.MaxH)
		for h := 1; h <= cfg.MaxH; h++ {
			res, e := harness.BenchTrials(b, harness.PCTWMFactory(b.Table3Depth, h), cfg.Runs, cfg.Seed+int64(31*h), 0,
				cfg.cell(fmt.Sprintf("table3/%s/h%d", b.Name, h)))
			est = e
			row = append(row, fmt.Sprintf("%.1f", res.Rate()))
		}
		if cfg.interrupted() {
			tw.Flush()
			return ErrInterrupted
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\n", b.Name, est.KCom, b.Table3Depth, strings.Join(row, "\t"))
	}
	return tw.Flush()
}

// Table4 prints the application performance comparison (paper Table 4):
// throughput for silo, elapsed time for mabain and iris, each the mean
// over PerfRuns runs of one campaign per tester, with the engine cost per
// event and the number of runs that found a data race.
func Table4(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	cfg.phase("table4")
	fmt.Fprintf(w, "Table 4: Performance on testing real-world applications (mean of %d runs).\n", cfg.PerfRuns)
	tw := newTab(w)
	fmt.Fprintln(tw, "App\tMetric\tC11Tester\tPCTWM\tOverhead\tns/event (c11/pctwm)\tRaces (c11/pctwm)")
	for _, a := range apps.All() {
		c11 := cfg.appTrials(a, "c11tester", harness.C11Tester())
		wm := cfg.appTrials(a, "pctwm", harness.PCTWMFactory(2, 1))
		if cfg.interrupted() {
			// A canceled campaign stopped early: its means cover only
			// the runs it finished, so the row is not printed.
			tw.Flush()
			return ErrInterrupted
		}
		c11Time, wmTime := c11.AvgTime().Seconds(), wm.AvgTime().Seconds()
		var metric, c11Cell, wmCell, overhead string
		switch a.Kind {
		case apps.KindThroughput:
			c11Ops, wmOps := throughput(a, c11Time), throughput(a, wmTime)
			metric = "ops/sec"
			c11Cell = fmt.Sprintf("%.0f", c11Ops)
			wmCell = fmt.Sprintf("%.0f", wmOps)
			overhead = fmt.Sprintf("%+.1f%%", safePct(c11Ops-wmOps, c11Ops))
		default:
			metric = "time/ms"
			c11Cell = fmt.Sprintf("%.2f", 1000*c11Time)
			wmCell = fmt.Sprintf("%.2f", 1000*wmTime)
			overhead = fmt.Sprintf("%+.1f%%", safePct(wmTime-c11Time, c11Time))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.0f/%.0f\t%d/%d\n",
			a.Name, metric, c11Cell, wmCell, overhead,
			c11.NsPerEvent(), wm.NsPerEvent(), c11.Hits, wm.Hits)
	}
	return tw.Flush()
}

// appTrials runs one Table 4 cell: PerfRuns rounds of the application
// under the factory's strategy as one campaign, counting the rounds that
// found a data race as hits.
func (c Config) appTrials(a *apps.App, strategy string, factory harness.StrategyFactory) harness.TrialResult {
	prog := a.Program()
	opts := a.Options()
	opts.Model = c.Campaign.Model
	est := harness.EstimateParams(prog, 5, c.Seed^0x9e1f, opts)
	raced := func(o *engine.Outcome) bool { return len(o.Races) > 0 }
	return harness.RunCampaign(prog, raced, func() engine.Strategy { return factory(est) },
		c.PerfRuns, c.Seed, opts, c.cell("table4/"+a.Name+"/"+strategy))
}

// throughput is the application's operations per second at a mean run
// time of seconds, 0 for a run too short to time.
func throughput(a *apps.App, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(a.Ops) / seconds
}

// Figure5 prints the highest bug hitting rates observed per benchmark for
// the three algorithms (paper Figure 5): C11Tester as-is, PCT and PCTWM
// over bug depths d..d+2 (and h ∈ 1..MaxH for PCTWM).
func Figure5(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	fmt.Fprintf(w, "Figure 5: Highest bug hitting rates (%%) observed over %d rounds.\n", cfg.Runs)
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\tC11Tester\tPCT\tPCTWM\tPCTWM 95% CI")
	rows, err := figure5(cfg)
	for _, r := range rows {
		lo, hi := r.pctwm.CI95()
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t[%.1f, %.1f]\n", r.bench, r.c11.Rate(), r.pct.Rate(), r.pctwm.Rate(), lo, hi)
	}
	return flush(tw, err)
}

// fig5Row is one benchmark of Figure 5: its C11Tester campaign and its
// best PCT and PCTWM campaigns over bug depths d..d+2.
type fig5Row struct {
	bench           string
	c11, pct, pctwm harness.TrialResult
}

// figure5 runs the campaigns behind Figure5 and Figure5CSV. On
// interruption it returns the rows finished before it with
// ErrInterrupted; the row whose campaigns were cut short is dropped.
func figure5(cfg Config) ([]fig5Row, error) {
	cfg.phase("figure5")
	var rows []fig5Row
	for _, b := range benchprog.All() {
		r := fig5Row{bench: b.Name}
		r.c11, _ = harness.BenchTrials(b, harness.C11Tester(), cfg.Runs, cfg.Seed, 0,
			cfg.cell("figure5/"+b.Name+"/c11"))
		for i := 0; i < 3; i++ {
			pct, _ := harness.BenchTrials(b, harness.PCTFactory(max(b.Depth+i, 1)), cfg.Runs, cfg.Seed+int64(7*i), 0,
				cfg.cell(fmt.Sprintf("figure5/%s/pct-d%d", b.Name, i)))
			r.pct = higherRate(r.pct, pct)
			wm, _ := harness.BestOverH(b, b.Depth+i, cfg.MaxH, cfg.Runs, cfg.Seed+int64(13*i),
				cfg.cell(fmt.Sprintf("figure5/%s/pctwm-d%d", b.Name, i)))
			r.pctwm = higherRate(r.pctwm, wm)
		}
		if cfg.interrupted() {
			return rows, ErrInterrupted
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// higherRate returns res when it beats best's hit rate or best holds no
// rounds yet, else best.
func higherRate(best, res harness.TrialResult) harness.TrialResult {
	if res.Rate() > best.Rate() || best.Runs == 0 {
		return res
	}
	return best
}

// fig6Benchmarks are the four benchmarks of Figure 6 with their inserted
// relaxed-write sweeps (x axes as in the paper).
var fig6Benchmarks = []struct {
	name  string
	sweep []int
}{
	{"mpmcqueue", []int{2, 4, 6, 8, 10}},
	{"dekker", []int{0, 2, 4, 6, 8, 10}},
	{"rwlock", []int{5, 10, 15, 20}},
	{"cldeque", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
}

// Figure6 prints the change in bug hitting rates with an increasing number
// of inserted relaxed writes (paper Figure 6): PCT's rate fluctuates as
// the event count k grows while PCTWM stays stable.
func Figure6(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	fmt.Fprintf(w, "Figure 6: Bug hitting rates (%%) in %d rounds vs. inserted relaxed writes.\n", cfg.Fig6Runs)
	series, err := figure6(cfg)
	for _, s := range series {
		fmt.Fprintf(w, "\n%s - inserting relaxed writes (d=%d)\n", s.bench.Name, s.bench.Depth)
		tw := newTab(w)
		fmt.Fprintln(tw, "Writes\tC11Tester\tPCT\tPCTWM")
		for _, p := range s.points {
			fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.1f\n", p.writes, p.c11, p.pct, p.pctwm)
		}
		if ferr := tw.Flush(); ferr != nil && err == nil {
			return ferr
		}
	}
	return err
}

// fig6Series is one benchmark of Figure 6, one point per sweep value.
type fig6Series struct {
	bench  *benchprog.Benchmark
	points []fig6Point
}

// fig6Point is the hit rates at one count of inserted relaxed writes.
type fig6Point struct {
	writes          int
	c11, pct, pctwm float64
}

// figure6 runs the campaigns behind Figure6 and Figure6CSV. On
// interruption it returns the series started so far with ErrInterrupted,
// without the point whose campaigns were cut short.
func figure6(cfg Config) ([]fig6Series, error) {
	cfg.phase("figure6")
	var out []fig6Series
	for _, f := range fig6Benchmarks {
		b, err := benchprog.ByName(f.name)
		if err != nil {
			return out, err
		}
		s := fig6Series{bench: b}
		for _, n := range f.sweep {
			c11, _ := harness.BenchTrials(b, harness.C11Tester(), cfg.Fig6Runs, cfg.Seed+int64(n), n,
				cfg.cell(fmt.Sprintf("figure6/%s/w%d/c11", b.Name, n)))
			pct, _ := harness.BenchTrials(b, harness.PCTFactory(max(b.Depth, 1)), cfg.Fig6Runs, cfg.Seed+int64(2*n), n,
				cfg.cell(fmt.Sprintf("figure6/%s/w%d/pct", b.Name, n)))
			wm, _ := harness.BenchTrials(b, harness.PCTWMFactory(b.Depth, 1), cfg.Fig6Runs, cfg.Seed+int64(3*n), n,
				cfg.cell(fmt.Sprintf("figure6/%s/w%d/pctwm", b.Name, n)))
			if cfg.interrupted() {
				return append(out, s), ErrInterrupted
			}
			s.points = append(s.points, fig6Point{n, c11.Rate(), pct.Rate(), wm.Rate()})
		}
		out = append(out, s)
	}
	return out, nil
}

// coverageTargets are the litmus programs the coverage artifacts census
// and sample (weak-behaviour-rich programs with small decision trees, so
// the exhaustive census is cheap and saturation is reachable in a
// Quick-sized budget).
var coverageTargets = []string{"SB+rlx", "MP+rlx", "LB+rlx", "CoRR2", "IRIW+rlx"}

// coverageCensusLimit caps each census enumeration.
const coverageCensusLimit = 500000

// coverageStrategies are the strategies the coverage artifacts race
// against each other (same lineup as the historical outcome-coverage
// table: the POS-paper comparison set).
var coverageStrategies = []struct {
	name    string
	factory harness.StrategyFactory
}{
	{"c11tester", harness.C11Tester()},
	{"pos", harness.POSFactory()},
	{"pct", harness.PCTFactory(2)},
	{"pctwm", harness.PCTWMFactory(2, 2)},
}

// findLitmus resolves a litmus test by name.
func findLitmus(name string) (*litmus.Test, error) {
	for _, cand := range litmus.Suite() {
		if cand.Name == name {
			return cand, nil
		}
	}
	return nil, fmt.Errorf("report: unknown litmus test %q", name)
}

// coverageCampaign runs one litmus coverage campaign and returns its
// deterministic behavior set.
func (c Config) coverageCampaign(lt *litmus.Test, strategy string, factory harness.StrategyFactory, seedOff int64) (*coverage.Set, error) {
	opts := engine.Options{Model: c.Campaign.Model}
	est := harness.EstimateParams(lt.Program, 10, c.Seed, opts)
	camp := c.cell("coverage/" + lt.Name + "/" + strategy)
	camp.Coverage = true
	noHit := func(*engine.Outcome) bool { return false }
	res := harness.RunCampaign(lt.Program, noHit, func() engine.Strategy { return factory(est) },
		c.Runs, c.Seed+seedOff, opts, camp)
	if res.Coverage == nil {
		if res.Interrupted {
			return nil, ErrInterrupted
		}
		return nil, fmt.Errorf("report: coverage campaign %s/%s produced no coverage", lt.Name, strategy)
	}
	return res.Coverage, nil
}

// coverageCell renders one strategy's coverage against the census:
// behaviors found, then either @T (trials to full coverage, for a
// saturated campaign) or ~p% (the Good–Turing unseen-mass estimate).
func coverageCell(set *coverage.Set, census *enumerate.Census) string {
	st := set.Stats()
	if census.Complete && st.Behaviors == len(census.Behaviors) {
		return fmt.Sprintf("%d @%d", st.Behaviors, st.LastNovel+1)
	}
	return fmt.Sprintf("%d ~%.1f%%", st.Behaviors, 100*st.UnseenMass)
}

// Coverage measures behavior-space coverage on litmus programs: the
// exhaustive explorer computes the ground-truth behavior census (every
// distinct behavior fingerprint any schedule can realize — final
// values, reads-from pairs and per-location coherence, canonicalized by
// internal/coverage), then each strategy gets a fixed budget of rounds
// and is scored by how many distinct behaviors it visits and how fast
// it stops finding new ones — the saturation view of randomized
// testing ("is my campaign done?"). The behavior census refines the
// final-value outcome count the POS paper popularized (related work,
// §7): schedules agreeing on finals but differing in rf/coherence are
// distinct behaviors here.
func Coverage(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	fmt.Fprintf(w, "Behavior coverage on litmus programs: distinct behaviors found in %d rounds vs. the exhaustive census.\n", cfg.Runs)
	fmt.Fprintln(w, "Cells: behaviors found, then @T = trials to full coverage or ~p% = Good-Turing unseen-mass estimate.")
	tw := newTab(w)
	fmt.Fprintln(tw, "Program\tcensus\tC11Tester\tPOS\tPCT(d=2)\tPCTWM(d=2,h=2)")
	rows, err := coverageRows(cfg)
	for _, r := range rows {
		total := fmt.Sprintf("%d", len(r.census.Behaviors))
		if !r.census.Complete {
			total += "+"
		}
		cells := make([]string, len(r.sets))
		for i, set := range r.sets {
			cells[i] = coverageCell(set, r.census)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", r.program, total, strings.Join(cells, "\t"))
	}
	return flush(tw, err)
}

// coverageRow is one litmus program of the coverage artifact: its
// behavior census and the behavior set of each coverageStrategies
// campaign, in that order.
type coverageRow struct {
	program string
	census  *enumerate.Census
	sets    []*coverage.Set
}

// coverageRows runs the censuses and campaigns behind Coverage and
// CoverageCSV. On an error or interruption it returns the rows finished
// before it; the row whose campaigns were cut short is dropped.
func coverageRows(cfg Config) ([]coverageRow, error) {
	cfg.phase("coverage")
	var rows []coverageRow
	for _, name := range coverageTargets {
		lt, err := findLitmus(name)
		if err != nil {
			return rows, err
		}
		census, err := enumerate.BehaviorCensus(lt.Program, engine.Options{Model: cfg.Campaign.Model},
			enumerate.Config{Limit: coverageCensusLimit, Workers: cfg.Campaign.Workers, Context: cfg.Campaign.Context})
		if err != nil {
			return rows, err
		}
		r := coverageRow{program: lt.Name, census: census}
		for i, s := range coverageStrategies {
			set, err := cfg.coverageCampaign(lt, s.name, s.factory, int64(23*i))
			if err != nil {
				return rows, err
			}
			r.sets = append(r.sets, set)
		}
		if cfg.interrupted() {
			return rows, ErrInterrupted
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Baselines prints an extended comparison beyond the paper's Figure 5:
// the four randomized algorithms side by side at each benchmark's design
// depth, together with PCTWM's theoretical lower bound (§5.4).
func Baselines(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	cfg.phase("baselines")
	fmt.Fprintf(w, "Extended baselines: bug hitting rates (%%) over %d rounds at the design depth (h=1).\n", cfg.Runs)
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\td\tC11Tester\tPOS\tPCT\tPCTWM\tPCTWM bound")
	for _, b := range benchprog.All() {
		c11, est := harness.BenchTrials(b, harness.C11Tester(), cfg.Runs, cfg.Seed, 0,
			cfg.cell("baselines/"+b.Name+"/c11"))
		pos, _ := harness.BenchTrials(b, harness.POSFactory(), cfg.Runs, cfg.Seed+1, 0,
			cfg.cell("baselines/"+b.Name+"/pos"))
		pct, _ := harness.BenchTrials(b, harness.PCTFactory(max(b.Depth, 1)), cfg.Runs, cfg.Seed+2, 0,
			cfg.cell("baselines/"+b.Name+"/pct"))
		wm, _ := harness.BenchTrials(b, harness.PCTWMFactory(b.Depth, 1), cfg.Runs, cfg.Seed+3, 0,
			cfg.cell("baselines/"+b.Name+"/pctwm"))
		if cfg.interrupted() {
			tw.Flush()
			return ErrInterrupted
		}
		bound := 100 * core.PCTWMBound(est.KCom, b.Depth, 1)
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\n",
			b.Name, b.Depth, c11.Rate(), pos.Rate(), pct.Rate(), wm.Rate(), bound)
	}
	return tw.Flush()
}

// Ablations prints the contribution of each PCTWM ingredient (history
// bounding, sink delaying, thread-local views) to the bug hitting rate at
// every benchmark's design depth — the ablation study for the design
// choices of §5.2.
func Ablations(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	cfg.phase("ablation")
	fmt.Fprintf(w, "Ablation: PCTWM ingredient contributions (%%), %d rounds, h=1, d = design depth.\n", cfg.Runs)
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\td\tfull\tno-history\tno-delay\tno-local-views")
	modes := []core.Ablation{core.AblateNone, core.AblateHistory, core.AblateDelay, core.AblateLocalViews}
	for _, b := range benchprog.All() {
		row := make([]string, 0, len(modes))
		for i, m := range modes {
			m := m
			factory := func(est harness.Estimate) engine.Strategy {
				return core.NewAblatedPCTWM(b.Depth, 1, est.KCom, m)
			}
			res, _ := harness.BenchTrials(b, factory, cfg.Runs, cfg.Seed+int64(41*i), 0,
				cfg.cell(fmt.Sprintf("ablation/%s/m%d", b.Name, i)))
			row = append(row, fmt.Sprintf("%.1f", res.Rate()))
		}
		if cfg.interrupted() {
			tw.Flush()
			return ErrInterrupted
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\n", b.Name, b.Depth, strings.Join(row, "\t"))
	}
	return tw.Flush()
}

// Telemetry prints the engine-counter profile of one PCTWM campaign per
// benchmark: how the executed-event mix, scheduler handoff ratio,
// reads-from candidate-bag sizes, and priority-change-point depths differ
// across the suite. The counters are merged from the per-worker shards of
// each campaign, so the totals are identical for every Workers setting.
func Telemetry(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	fmt.Fprintf(w, "Engine telemetry per benchmark: PCTWM (h=1, design depth), %d rounds.\n", cfg.Runs)
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\ttrials\tevents\thandoff%\trf-cand (mean/max)\tcp-depth (mean/max)\trace checks")
	rows, err := telemetryRows(cfg)
	for _, r := range rows {
		s := r.summary
		grants := s.Handoffs + s.SameThreadGrants
		handoffPct := 0.0
		if grants > 0 {
			handoffPct = 100 * float64(s.Handoffs) / float64(grants)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%.1f/%d\t%.1f/%d\t%d\n",
			r.bench, s.Trials, s.Events, handoffPct,
			s.RFCandidates.Mean, s.RFCandidates.Max,
			s.ChangePointDepth.Mean, s.ChangePointDepth.Max,
			s.RaceChecks)
	}
	return flush(tw, err)
}

// telemetryRow is one benchmark's merged engine-counter profile.
type telemetryRow struct {
	bench   string
	summary telemetry.EngineSummary
}

// telemetryRows runs the campaigns behind Telemetry and TelemetryCSV. On
// an error or interruption it returns the rows finished before it; the
// row whose campaign was cut short is dropped.
func telemetryRows(cfg Config) ([]telemetryRow, error) {
	cfg.phase("telemetry")
	var rows []telemetryRow
	for _, b := range benchprog.All() {
		camp := cfg.cell("telemetry/" + b.Name)
		camp.Telemetry = true
		res, _ := harness.BenchTrials(b, harness.PCTWMFactory(b.Depth, 1), cfg.Runs, cfg.Seed, 0, camp)
		if cfg.interrupted() {
			return rows, ErrInterrupted
		}
		if res.Telemetry == nil {
			return rows, fmt.Errorf("report: campaign for %s produced no telemetry", b.Name)
		}
		rows = append(rows, telemetryRow{b.Name, res.Telemetry.Summary()})
	}
	return rows, nil
}

// All renders every table and figure in order.
func All(w io.Writer, cfg Config) error {
	sections := []func(io.Writer, Config) error{
		Table1, Table2, Table3, Table4, Figure5, Figure6, Ablations, Baselines, Coverage,
	}
	for i, f := range sections {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := f(w, cfg); err != nil {
			return err
		}
	}
	return nil
}

// safePct returns 100*num/den with a zero denominator guarded to 0, so
// degenerate measurements (an app that completed in 0 observable time)
// render as "+0.0%" instead of NaN/Inf.
func safePct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}
