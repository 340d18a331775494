package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pctwm/internal/engine"
	"pctwm/internal/harness"
	"pctwm/internal/replay"
	"pctwm/internal/telemetry/perfetto"
)

// replayCmd is `pctwm replay`: it re-executes repro bundles written by a
// trial campaign (harness.Campaign.ReproDir) and verifies that the
// recorded failing execution reproduces bit-identically.
//
//	pctwm replay [-extra-writes N] [-v] [-perfetto-dir DIR] bundle.json [bundle2.json ...]
//	pctwm replay -campaign CHECKPOINT_DIR [bundle.json ...]
//
// -campaign reads the durable repro-bundle index out of a campaign
// checkpoint directory (`pctwm bench` or `pctwm experiments`
// -checkpoint-dir): the newest good checkpoint generation of every cell
// names the bundles its campaign captured, and each of those is replayed
// as if passed on the command line (explicit bundle arguments are
// replayed afterwards).
//
// Each bundle names its program; the program is resolved against the
// program registry (benchmarks with their fixed variants, litmus tests,
// applications) and fingerprint-checked (thread and location counts)
// before the replay, so a bundle recorded against a different build of
// the program is rejected instead of silently derailing. Version-3
// bundles also record the behavior fingerprint (internal/coverage) of
// the original failing trial; a deterministic bundle whose replay
// produces a different fingerprint is reported as diverged.
// -extra-writes rebuilds benchmark programs with the Figure-6 inserted
// relaxed writes, matching campaigns that ran with them.
//
// -perfetto-dir writes a Chrome trace-event JSON rendering of each
// bundle's replayed schedule under DIR as <bundle>.replay.perfetto.json,
// for opening in ui.perfetto.dev.
//
// Exit status: 0 when every bundle reproduced its recorded outcome, 1
// when any replay diverged (outcome diff or schedule derail), 2 on usage,
// load or program-resolution errors.
func replayCmd(args []string, stdout, stderr io.Writer) int {
	c := newCmd("replay", stdout, stderr)
	extraWrites := c.Int("extra-writes", 0, "rebuild benchmark programs with this many inserted relaxed writes (Figure 6 campaigns)")
	verbose := c.Bool("v", false, "print the replayed outcome summary for every bundle")
	perfDir := c.String("perfetto-dir", "", "write each replayed schedule as Chrome trace-event JSON under this directory")
	campaignDir := c.String("campaign", "", "replay every bundle indexed by the checkpoints under this campaign directory")
	model := &modelFlag{perBundle: true}
	c.Var(model, "engine.model", "require bundles to record this memory model (empty = replay each under its own recorded model)")
	if code, ok := c.parse(args); !ok {
		return code
	}
	paths := c.Args()
	if *campaignDir != "" {
		indexed, err := harness.LoadReproIndex(nil, *campaignDir)
		if err != nil {
			return c.fail(2, "-campaign %s: %v", *campaignDir, err)
		}
		if len(indexed) == 0 {
			fmt.Fprintf(stdout, "pctwm replay: no repro bundles indexed under %s (campaign had no captured failures)\n", *campaignDir)
			if len(paths) == 0 {
				return 0
			}
		}
		paths = append(indexed, paths...)
	}
	if len(paths) == 0 {
		c.Usage()
		return 2
	}

	exit := 0
	for _, path := range paths {
		exit = max(exit, replayBundle(c, path, *extraWrites, *verbose, *perfDir, model.name))
	}
	return exit
}

// replayBundle loads, resolves and verifies one bundle, printing a
// one-line verdict (plus details on divergence). Returns an exit status
// contribution: 0 reproduced, 1 diverged, 2 load/resolve error. An empty
// wantModel accepts the bundle's own model.
func replayBundle(c *cmd, path string, extraWrites int, verbose bool, perfDir, wantModel string) int {
	w := c.stdout
	b, err := replay.LoadBundle(path)
	if err != nil {
		return c.fail(2, "%s: %v", path, err)
	}
	if wantModel != "" && b.Model != wantModel {
		// A decision sequence is only meaningful under the semantics it was
		// recorded against — refuse up front rather than report a divergence.
		return c.fail(2, "%s: bundle records memory model %q, -engine.model requires %q", path, b.Model, wantModel)
	}
	prog, err := resolveProgram(b, extraWrites)
	if err != nil {
		return c.fail(2, "%s: %v", path, err)
	}
	if perfDir != "" {
		writePerfetto(c, path, b, prog, perfDir)
	}

	if b.HarnessPanic != "" {
		// The recorded failure was a panic outside the engine (strategy or
		// harness bug); the panicking strategy itself is not serializable,
		// so the replay is best-effort: re-run whatever decisions were
		// recorded and report, but do not judge reproduction.
		fmt.Fprintf(w, "%s: %s seed=%d: harness panic bundle (triage %s): %s\n",
			path, b.Program, b.Seed, b.Triage, b.HarnessPanic)
		if verbose && b.Stack != "" {
			fmt.Fprintf(w, "  recorded stack:\n%s\n", b.Stack)
		}
		return 0
	}

	res, err := b.Verify(prog)
	if err != nil {
		return c.fail(2, "%s: %v", path, err)
	}
	// v3 bundles carry the behavior fingerprint the campaign recorded;
	// name it in the verdict so dedupe decisions can be audited by hand.
	var fp string
	if b.BehaviorFP != 0 {
		fp = fmt.Sprintf(", behavior %#x", b.BehaviorFP)
	}
	code := 0
	if res.Match {
		fmt.Fprintf(w, "%s: %s %s seed=%d: REPRODUCED (%d steps, triage %s%s)\n",
			path, b.Program, b.Strategy, b.Seed, res.Summary.Steps, b.Triage, fp)
	} else {
		code = 1
		fmt.Fprintf(w, "%s: %s %s seed=%d: DIVERGED (derails=%d, triage %s%s)\n",
			path, b.Program, b.Strategy, b.Seed, res.Derails, b.Triage, fp)
		for _, d := range res.Diffs {
			fmt.Fprintf(w, "  diff %s\n", d)
		}
	}
	if verbose {
		s := res.Summary
		fmt.Fprintf(w, "  steps=%d events=%d comm=%d bug=%v races=%d aborted=%v deadlocked=%v",
			s.Steps, s.Events, s.CommEvents, s.BugHit, s.Races, s.Aborted, s.Deadlocked)
		if s.ErrKind != "" {
			fmt.Fprintf(w, " err=%s(%s)", s.ErrKind, s.ErrMsg)
		}
		fmt.Fprintln(w)
		for _, m := range s.BugMessages {
			fmt.Fprintf(w, "  bug: %s\n", m)
		}
	}
	return code
}

// writePerfetto renders as Chrome trace-event JSON under dir the
// schedule a fresh replay of the bundle's recorded decisions executes
// here. Failures are reported but never affect the replay verdict —
// trace export is best-effort diagnostics.
func writePerfetto(c *cmd, path string, b *replay.Bundle, prog *engine.Program, dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.logf("%s: perfetto dir: %v", path, err)
		return
	}
	// Re-run the recorded decisions with recording on to render the
	// schedule this build actually executes (which may diverge from the
	// recorded one).
	trace := b.Trace
	if trace == nil {
		trace = &replay.Trace{}
	}
	opts := b.Options
	opts.Context = nil
	opts.Telemetry = nil
	opts.Record = true
	o := engine.Run(prog, replay.NewPlayer(trace), b.Seed, opts)
	if o.Recording == nil {
		return
	}
	data, err := perfetto.Marshal(o.Recording, nil)
	if err != nil {
		c.logf("%s: %v", path, err)
		return
	}
	out := filepath.Join(dir, strings.TrimSuffix(filepath.Base(path), ".json")+".replay.perfetto.json")
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		c.logf("%s: %v", path, err)
		return
	}
	fmt.Fprintf(c.stdout, "%s: wrote replayed schedule to %s\n", path, out)
}

// resolveProgram finds the program the bundle was recorded against by
// name in the program registry, then fingerprint-checks it.
func resolveProgram(b *replay.Bundle, extraWrites int) (*engine.Program, error) {
	var named []*engine.Program
	for _, p := range registry() {
		prog := p.build(extraWrites)
		if prog.Name() != b.Program {
			continue
		}
		if b.Matches(prog) {
			return prog, nil
		}
		named = append(named, prog)
	}
	if len(named) > 0 {
		p := named[0]
		return nil, fmt.Errorf(
			"program %q found but fingerprint differs: bundle has %d threads/%d locs, this build has %d/%d (recorded against a different build or -extra-writes?)",
			b.Program, b.ProgramThreads, b.ProgramLocs, p.NumThreads(), p.NumLocs())
	}
	return nil, fmt.Errorf("program %q not found in the program registry", b.Program)
}
