package report

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pctwm/internal/benchprog"
	"pctwm/internal/engine"
	"pctwm/internal/telemetry"
)

// tiny is a minimal configuration so the full report renders quickly.
var tiny = Config{Runs: 20, Fig6Runs: 15, PerfRuns: 1, MaxH: 2, Seed: 3}

func render(t *testing.T, f func(w interface {
	Write([]byte) (int, error)
}, cfg Config) error) string {
	t.Helper()
	var b strings.Builder
	if err := f(&b, tiny); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestTable1(t *testing.T) {
	out := render(t, func(w interface{ Write([]byte) (int, error) }, cfg Config) error {
		return Table1(w, cfg)
	})
	for _, want := range []string{"Table 1", "dekker", "seqlock", "kcom"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 11 { // title + header + 9 rows
		t.Fatalf("unexpected row count:\n%s", out)
	}
}

// TestTable1IgnoresSeed: every program is estimated by one rule
// (harness.Profile), a property of the program and its model, so Table 1
// prints the same table at any seed.
func TestTable1IgnoresSeed(t *testing.T) {
	var def, one strings.Builder
	if err := Table1(&def, Default()); err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.Seed = 1
	if err := Table1(&one, cfg); err != nil {
		t.Fatal(err)
	}
	if def.String() != one.String() {
		t.Fatalf("Table 1 moved with the seed:\nseed %d:\n%s\nseed 1:\n%s", Default().Seed, def.String(), one.String())
	}
}

func TestTable2(t *testing.T) {
	out := render(t, func(w interface{ Write([]byte) (int, error) }, cfg Config) error {
		return Table2(w, cfg)
	})
	if !strings.Contains(out, "Rate(d+2)") || !strings.Contains(out, "(h:") {
		t.Fatalf("table 2 malformed:\n%s", out)
	}
}

func TestTable3(t *testing.T) {
	out := render(t, func(w interface{ Write([]byte) (int, error) }, cfg Config) error {
		return Table3(w, cfg)
	})
	if !strings.Contains(out, "h:1") || !strings.Contains(out, "h:2") {
		t.Fatalf("table 3 malformed:\n%s", out)
	}
}

func TestTable4(t *testing.T) {
	out := render(t, func(w interface{ Write([]byte) (int, error) }, cfg Config) error {
		return Table4(w, cfg)
	})
	for _, want := range []string{"silo", "mabain", "iris", "ops/sec", "time/ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 5 { // title + header + 3 apps
		t.Fatalf("unexpected row count:\n%s", out)
	}
}

// TestTable4FollowsCampaign: Table 4 runs under the config's model and
// on the campaign template, so the model reaches the engine, the
// template's workers share the cells' run times and its metrics hub
// counts every trial. The race detector runs only
// under rc11, so under sc no run finds a race.
func TestTable4FollowsCampaign(t *testing.T) {
	cfg := tiny
	cfg.PerfRuns = 2
	cfg.Model = engine.ModelSC
	cfg.Campaign.Workers = 2
	cfg.Campaign.Metrics = &telemetry.Metrics{}
	var b strings.Builder
	if err := Table4(&b, cfg); err != nil {
		t.Fatal(err)
	}
	for _, row := range strings.Split(strings.TrimSpace(b.String()), "\n")[2:] {
		if !strings.HasSuffix(row, " 0/0") {
			t.Errorf("races found under sc: %q", row)
		}
	}
	if got, want := cfg.Campaign.Metrics.Trials(), uint64(3*2*cfg.PerfRuns); got != want {
		t.Errorf("metrics hub counted %d trials, want %d", got, want)
	}
}

// TestTable4Interrupted: a canceled context stops Table 4 with
// ErrInterrupted and no row built from a campaign cut short.
func TestTable4Interrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := tiny
	cfg.Campaign.Context = ctx
	var b strings.Builder
	if err := Table4(&b, cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if lines := strings.Split(strings.TrimSpace(b.String()), "\n"); len(lines) != 2 { // title + header
		t.Fatalf("rows printed after the cancel:\n%s", b.String())
	}
}

// cutAfter is a context that reports cancellation once the metrics hub
// has counted n trials. Its Done channel is nil, so a run in flight
// finishes and its campaign stops before the next trial; at Workers 1 the
// cut falls on the same trial every time.
type cutAfter struct {
	context.Context
	hub *telemetry.Metrics
	n   uint64
}

func (c cutAfter) Err() error {
	if c.hub.Trials() >= c.n {
		return context.Canceled
	}
	return nil
}

// fieldLines splits out into lines of single-space-joined fields, so a
// table that lost its widest row still compares equal to the rest.
func fieldLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		lines = append(lines, strings.Join(strings.Fields(l), " "))
	}
	return lines
}

// TestSectionsDropCutRow: a section canceled one trial before its end,
// inside its last row's last campaign, returns ErrInterrupted and prints
// every earlier row and nothing of the last one.
func TestSectionsDropCutRow(t *testing.T) {
	sections := []struct {
		name     string
		f        func(io.Writer, Config) error
		rowLines int // lines the last row prints
	}{
		{"Table2", Table2, 1},
		{"Table3", Table3, 1},
		{"Figure5", Figure5, 1},
		{"Figure5CSV", Figure5CSV, 3},
		{"Figure6", Figure6, 1},
		{"Figure6CSV", Figure6CSV, 3},
		{"Ablations", Ablations, 1},
		{"Baselines", Baselines, 1},
		{"Coverage", Coverage, 1},
		{"CoverageCSV", CoverageCSV, len(coverageStrategies)},
		{"Telemetry", Telemetry, 1},
		{"TelemetryCSV", TelemetryCSV, 1},
	}
	for _, sec := range sections {
		t.Run(sec.name, func(t *testing.T) {
			cfg := tiny
			cfg.Campaign.Workers = 1
			cfg.Campaign.Metrics = &telemetry.Metrics{}
			var full strings.Builder
			if err := sec.f(&full, cfg); err != nil {
				t.Fatal(err)
			}
			total := cfg.Campaign.Metrics.Trials()
			hub := &telemetry.Metrics{}
			cfg.Campaign.Metrics = hub
			cfg.Campaign.Context = cutAfter{context.Background(), hub, total - 1}
			var cut strings.Builder
			if err := sec.f(&cut, cfg); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("err = %v, want ErrInterrupted", err)
			}
			want := fieldLines(full.String())
			want = want[:len(want)-sec.rowLines]
			if got := fieldLines(cut.String()); !slices.Equal(got, want) {
				t.Fatalf("canceled output:\n%s\nwant the full output without its last row:\n%s", cut.String(), full.String())
			}
		})
	}
}

func TestFigure5(t *testing.T) {
	out := render(t, func(w interface{ Write([]byte) (int, error) }, cfg Config) error {
		return Figure5(w, cfg)
	})
	if !strings.Contains(out, "C11Tester") || !strings.Contains(out, "PCTWM") {
		t.Fatalf("figure 5 malformed:\n%s", out)
	}
}

func TestFigure6(t *testing.T) {
	out := render(t, func(w interface{ Write([]byte) (int, error) }, cfg Config) error {
		return Figure6(w, cfg)
	})
	for _, want := range []string{"mpmcqueue", "dekker", "rwlock", "cldeque", "Writes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestConfigNormalization(t *testing.T) {
	n := (Config{}).normalized()
	d := Default()
	if n.Runs != d.Runs || n.Fig6Runs != d.Fig6Runs || n.PerfRuns != d.PerfRuns || n.MaxH != d.MaxH {
		t.Fatalf("normalized %+v", n)
	}
	q := Quick()
	if q.Runs >= d.Runs {
		t.Fatal("quick config not smaller")
	}
}

func TestAblations(t *testing.T) {
	out := render(t, func(w interface{ Write([]byte) (int, error) }, cfg Config) error {
		return Ablations(w, cfg)
	})
	for _, want := range []string{"no-history", "no-delay", "no-local-views", "seqlock"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestBaselines(t *testing.T) {
	out := render(t, func(w interface{ Write([]byte) (int, error) }, cfg Config) error {
		return Baselines(w, cfg)
	})
	for _, want := range []string{"POS", "PCTWM bound", "dekker"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCoverage(t *testing.T) {
	out := render(t, func(w interface{ Write([]byte) (int, error) }, cfg Config) error {
		return Coverage(w, cfg)
	})
	for _, want := range []string{"census", "behaviors", "SB+rlx", "IRIW+rlx"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCoverageCSV(t *testing.T) {
	out := render(t, func(w interface{ Write([]byte) (int, error) }, cfg Config) error {
		return CoverageCSV(w, cfg)
	})
	if !strings.HasPrefix(out, "program,census,strategy,behaviors,observations,trials_to_full,est_unseen,chao1,gap_hist\n") {
		t.Fatalf("csv header missing:\n%s", out)
	}
	// One row per target program × strategy, every row well-formed.
	rows := strings.Split(strings.TrimSpace(out), "\n")[1:]
	if want := len(coverageTargets) * len(coverageStrategies); len(rows) != want {
		t.Fatalf("%d rows, want %d:\n%s", len(rows), want, out)
	}
	for _, row := range rows {
		if cells := strings.Split(row, ","); len(cells) != 9 {
			t.Fatalf("malformed row %q", row)
		}
	}
}

func TestAll(t *testing.T) {
	var b strings.Builder
	micro := Config{Runs: 5, Fig6Runs: 4, PerfRuns: 1, MaxH: 1, Seed: 2}
	if err := All(&b, micro); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table 1", "Table 4", "Figure 6", "Ablation", "coverage"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in full report", want)
		}
	}
}

// withoutTable4 drops the Table 4 block, whose timings vary between
// runs, the way CI's archive diff does.
func withoutTable4(out string) string {
	start := strings.Index(out, "Table 4")
	if start < 0 {
		return out
	}
	return out[:start] + out[start+strings.Index(out[start:], "\n\n")+2:]
}

// tableRows maps the first field of each line of out to its other
// fields: a table section's rows by benchmark.
func tableRows(out string) map[string][]string {
	rows := map[string][]string{}
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			rows[f[0]] = f[1:]
		}
	}
	return rows
}

// TestSectionsShareCells: every campaign of a program runs at its one
// Table 1 estimate, and a cell several sections print runs once. So
// Table 3's kcom column is Table 1's, Figure 5's PCTWM column is the
// maximum of Table 2's row, Baselines' PCTWM column is Ablations' full
// column, and each section prints the same alone as inside All.
func TestSectionsShareCells(t *testing.T) {
	var all strings.Builder
	if err := All(&all, tiny); err != nil {
		t.Fatal(err)
	}
	var alone []string
	out := map[string]map[string][]string{}
	for _, sec := range []struct {
		name string
		f    func(io.Writer, Config) error
	}{
		{"table1", Table1}, {"table2", Table2}, {"table3", Table3}, {"table4", Table4}, {"figure5", Figure5},
		{"figure6", Figure6}, {"ablation", Ablations}, {"baselines", Baselines}, {"coverage", Coverage},
	} {
		var b strings.Builder
		if err := sec.f(&b, tiny); err != nil {
			t.Fatal(err)
		}
		alone = append(alone, b.String())
		out[sec.name] = tableRows(b.String())
	}
	if got, want := withoutTable4(all.String()), withoutTable4(strings.Join(alone, "\n")); got != want {
		t.Errorf("All printed:\n%s\nthe sections alone printed:\n%s", got, want)
	}
	for _, b := range benchprog.All() {
		t1, t2, t3 := out["table1"][b.Name], out["table2"][b.Name], out["table3"][b.Name]
		if t1[2] != t3[0] {
			t.Errorf("%s: Table 3 kcom %s, Table 1 kcom %s", b.Name, t3[0], t1[2])
		}
		best := 0.0
		for i := 1; i < len(t2); i += 2 {
			rate, _ := strconv.ParseFloat(t2[i], 64)
			best = max(best, rate)
			if h, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(t2[i+1], "(h:"), ")")); err != nil || h < 1 || h > tiny.MaxH {
				t.Errorf("%s: Table 2 best h %s outside 1..%d", b.Name, t2[i+1], tiny.MaxH)
			}
		}
		if got := out["figure5"][b.Name][2]; got != fmt.Sprintf("%.1f", best) {
			t.Errorf("%s: Figure 5 PCTWM %s, Table 2 row maximum %.1f", b.Name, got, best)
		}
		if got, want := out["baselines"][b.Name][4], out["ablation"][b.Name][1]; got != want {
			t.Errorf("%s: Baselines PCTWM %s, Ablations full %s", b.Name, got, want)
		}
	}
}

func TestFigureCSVs(t *testing.T) {
	out := render(t, func(w interface{ Write([]byte) (int, error) }, cfg Config) error {
		return Figure5CSV(w, cfg)
	})
	if !strings.Contains(out, "benchmark,strategy,rate,ci_low,ci_high") || !strings.Contains(out, "dekker,pctwm,") {
		t.Fatalf("figure 5 CSV malformed:\n%s", out)
	}
	out = render(t, func(w interface{ Write([]byte) (int, error) }, cfg Config) error {
		return Figure6CSV(w, cfg)
	})
	if !strings.Contains(out, "benchmark,writes,strategy,rate") || !strings.Contains(out, "rwlock,5,pctwm,") {
		t.Fatalf("figure 6 CSV malformed:\n%s", out)
	}
}
