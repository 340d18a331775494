package report

import (
	"context"
	"errors"
	"strings"
	"testing"

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

// TestTable4FollowsCampaign: Table 4 runs on the campaign template, so
// its model reaches the engine and its metrics hub counts every trial.
// The race detector runs only under rc11, so under sc no run finds a
// race.
func TestTable4FollowsCampaign(t *testing.T) {
	cfg := tiny
	cfg.PerfRuns = 2
	cfg.Campaign.Model = engine.ModelSC
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
