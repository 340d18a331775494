package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/harness"
	"pctwm/internal/litmus"
	"pctwm/internal/replay"
	"pctwm/internal/telemetry"
)

// call runs the pctwm command line in-process and returns its exit
// status, stdout and stderr.
func call(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := pctwm(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// caseName names a table case by its command line, with the test's
// temporary directory written as DIR so the name is the same every run.
func caseName(args []string, dir string) string {
	return strings.ReplaceAll(strings.Join(args, " "), dir, "DIR")
}

// outcomeLine matches one outcome row of `pctwm explore`.
var outcomeLine = regexp.MustCompile(`(?m)^  \[[^]]*\] ×`)

// TestSubcommands smoke-runs every subcommand at small sizes: each must
// exit 0 and print its key line.
func TestSubcommands(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		args     []string
		want     string // a line stdout must contain
		outcomes int    // with explore: the number of outcome rows
	}{
		{args: []string{"run", "-b", "dekker", "-runs", "20", "-v"}, want: "first failure at round 0 (seed 1):"},
		{args: []string{"trace", "-b", "barrier"}, want: "consistency: the execution satisfies the rc11 axioms"},
		{args: []string{"trace", "-b", "mp2"}, want: "failing execution of mp2"},
		{args: []string{"explore", "-t", "SB+rlx", "-engine.model", "sc"}, want: "[model sc]", outcomes: 3},
		{args: []string{"explore", "-t", "SB+rlx", "-engine.model", "tso"}, want: "[model tso]", outcomes: 4},
		{args: []string{"litmus", "-runs", "50"}, want: "all litmus tests conform to the rc11 model"},
		{args: []string{"experiments", "-quick", "-section", "table1"}, want: "Table 1: Data structure benchmarks."},
		{args: []string{"experiments", "-section", "distcheck"}, want: "Conformance: PASS"},
		{args: []string{"bench", "-bench", "dekker", "-runs", "20", "-repro-dir", dir}, want: "(20 rounds per cell,"},
		{args: []string{"-h"}, want: "usage: pctwm <command>"},
		{args: []string{"run", "-h"}},
	}
	for _, tc := range cases {
		t.Run(caseName(tc.args, dir), func(t *testing.T) {
			code, stdout, stderr := call(tc.args...)
			if code != 0 {
				t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			if !strings.Contains(stdout, tc.want) {
				t.Errorf("stdout lacks %q:\n%s", tc.want, stdout)
			}
			if n := len(outcomeLine.FindAllString(stdout, -1)); tc.outcomes > 0 && n != tc.outcomes {
				t.Errorf("%d outcomes, want %d:\n%s", n, tc.outcomes, stdout)
			}
		})
	}

	// The bench campaign above wrote repro bundles; each must replay.
	bundles, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(bundles) == 0 {
		t.Fatal("bench -repro-dir wrote no bundles")
	}
	code, stdout, stderr := call(append([]string{"replay", "-v"}, bundles...)...)
	if code != 0 || strings.Count(stdout, "REPRODUCED") != len(bundles) {
		t.Fatalf("replay: exit %d, want 0 with %d REPRODUCED\nstdout:\n%s\nstderr:\n%s", code, len(bundles), stdout, stderr)
	}
	// A bundle recorded under rc11 is refused under another model.
	if code, _, _ := call("replay", "-engine.model", "sc", bundles[0]); code != 2 {
		t.Errorf("replay -engine.model sc of an rc11 bundle: exit %d, want 2", code)
	}
}

// TestRunEstimateIsTable1s: `pctwm run` estimates a benchmark by Table
// 1's rule, so for each of the nine benchmarks it prints Table 1's k and
// kcom, and a campaign it runs tests the strategy the tables test.
func TestRunEstimateIsTable1s(t *testing.T) {
	code, table, stderr := call("experiments", "-section", "table1")
	if code != 0 {
		t.Fatalf("experiments -section table1: exit %d\n%s", code, stderr)
	}
	rows := strings.Split(strings.TrimSpace(table), "\n")[2:] // title, header
	if len(rows) != 9 {
		t.Fatalf("Table 1 has %d rows, want 9:\n%s", len(rows), table)
	}
	for _, row := range rows {
		f := strings.Fields(row) // Benchmark LOC k kcom d
		code, stdout, stderr := call("run", "-b", f[0], "-runs", "1")
		if code != 0 {
			t.Fatalf("run -b %s: exit %d\n%s", f[0], code, stderr)
		}
		if want := fmt.Sprintf("%s under pctwm: estimated k=%s kcom=%s ", f[0], f[2], f[3]); !strings.Contains(stdout, want) {
			t.Errorf("run -b %s prints %q, want Table 1's %q", f[0], strings.SplitN(stdout, "\n", 2)[0], want)
		}
	}
}

// TestTraceRerunRepeatsTheFailure: the round firstFailure finds, under
// one strategy value on a warm Runner, is what trace's re-run of its seed
// on engine.Run, with recording and counters on, executes again: for
// every benchmark, strategy and model both runs fail with the same
// outcome.
func TestTraceRerunRepeatsTheFailure(t *testing.T) {
	found := 0
	for _, model := range engine.Models() {
		for _, b := range benchprog.All() {
			for _, strategy := range []string{"c11tester", "pct", "pctwm"} {
				tf := &trialFlags{strategy: strategyFlag(strategy), runs: 500, depth: -1, history: 1, seed: 1}
				tr, err := tf.trial(b.Name, model, 0)
				if err != nil {
					t.Fatal(err)
				}
				round, first, ok := tf.firstFailure(tr)
				if !ok {
					continue
				}
				found++
				opts := tr.opts
				opts.Record, opts.Telemetry = true, &telemetry.EngineCounters{}
				again := engine.Run(tr.prog, tr.newStrategy(), tf.seed+int64(round), opts)
				if diffs := replay.Summarize(first).Diff(replay.Summarize(again)); len(diffs) != 0 || !tr.detect(again) {
					t.Errorf("%s under %s and %s, round %d: the re-run differs %v (fails: %v)",
						b.Name, strategy, model, round, diffs, tr.detect(again))
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no benchmark failed under any strategy")
	}
}

// TestUsageErrors: every usage error exits 2.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	tso := filepath.Join(dir, "tso.json")
	if code, _, stderr := call("explore", "-t", "SB+rlx", "-engine.model", "tso", "-census", tso); code != 0 {
		t.Fatalf("writing the tso census: exit %d\n%s", code, stderr)
	}
	incomplete := filepath.Join(dir, "incomplete.json")
	if code, _, stderr := call("explore", "-t", "SB+rlx", "-limit", "2", "-census", incomplete); code != 0 {
		t.Fatalf("writing the incomplete census: exit %d\n%s", code, stderr)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("[]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{},
		{"nope"},
		{"run", "-b", "dekker", "-engine.model", "arm"},
		{"replay", "-engine.model", "arm", "x.json"},
		{"run", "-b", "nope"},
		{"trace", "-b", "nope"},
		{"run"},
		{"replay"},
		{"run", "-b", "dekker", "-strategy", "pos"},
		{"experiments", "-section", "nope"},
		{"explore", "-t", "nope"},
		{"bench", "-bench", "nope"},
		{"bench", "-resume", filepath.Join(dir, "a"), "-checkpoint-dir", filepath.Join(dir, "b")},
		{"experiments", "-resume", filepath.Join(dir, "a"), "-checkpoint-dir", filepath.Join(dir, "b")},
		{"bench", "-bench", "dekker", "-runs", "0"},
		{"run", "-b", "dekker", "-runs", "-5"},
		{"litmus", "-runs", "0"},
		{"trace", "-runs", "0"},
		{"litmus", "-coverage", "-runs", "200", "-census", tso},
		{"litmus", "-coverage", "-runs", "200", "-census", empty},
		{"litmus", "-coverage", "-runs", "300", "-census", incomplete},
		{"litmus", "-census", tso},
		{"experiments", "-distcheck"},
		{"explore", "-explore.workers", "2"},
		{"trace", "-rounds", "10"},
	}
	for _, args := range cases {
		t.Run(caseName(args, dir), func(t *testing.T) {
			code, stdout, stderr := call(args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			if len(args) == 0 || args[0] == "nope" {
				for _, c := range commands {
					if !strings.Contains(stderr, "  "+c.name+" ") {
						t.Errorf("usage does not list %q:\n%s", c.name, stderr)
					}
				}
			}
		})
	}
}

// TestBenchResumeOtherDepth: bench keys its checkpoint cells by the depth
// and history its strategies run with, so resuming a -d 1 checkpoint with
// -d 3 prints the matrix of a fresh -d 3 run, not the stored -d 1 rates.
func TestBenchResumeOtherDepth(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	matrix := func(args ...string) string {
		args = append([]string{"bench", "-bench", "rwlock", "-runs", "300"}, args...)
		code, stdout, stderr := call(args...)
		if code != 0 {
			t.Fatalf("%s: exit %d\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), code, stdout, stderr)
		}
		// Drop the closing "(… total)" line: it holds the wall time.
		return stdout[:strings.LastIndex(strings.TrimSuffix(stdout, "\n"), "\n")+1]
	}
	matrix("-d", "1", "-checkpoint-dir", dir)
	resumed := matrix("-d", "3", "-resume", dir)
	if fresh := matrix("-d", "3"); resumed != fresh {
		t.Fatalf("resumed -d 3 matrix differs from a fresh -d 3 run:\nresumed:\n%s\nfresh:\n%s", resumed, fresh)
	}
}

// watchedOutput is a stdout the test reads while a command writes it:
// seen is closed once the output contains want.
type watchedOutput struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	want string
	seen chan struct{}
}

func (w *watchedOutput) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.buf.Write(p)
	if w.want != "" && strings.Contains(w.buf.String(), w.want) {
		w.want = ""
		close(w.seen)
	}
	return n, err
}

func (w *watchedOutput) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// callInterrupted runs the command line in-process, sends this process a
// SIGINT once the command's output (stdout and stderr together) shows
// want, and returns the exit status and the output.
func callInterrupted(t *testing.T, want string, args ...string) (int, string) {
	t.Helper()
	// Catch the signal here too, so that one delivered after the command
	// has released its own handler cannot kill the test binary.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)

	out := &watchedOutput{want: want, seen: make(chan struct{})}
	done := make(chan int, 1)
	go func() { done <- pctwm(args, out, out) }()
	select {
	case <-out.seen:
	case code := <-done:
		t.Fatalf("exit %d before the output showed %q:\n%s", code, want, out)
	}
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	<-sig
	return <-done, out.String()
}

// TestExploreCensusInterrupted: a SIGINT that lands while explore
// -census explores the suite, after the first test's histogram and
// census are printed, is an interruption: exit 1 and no census file.
func TestExploreCensusInterrupted(t *testing.T) {
	file := filepath.Join(t.TempDir(), "census.json")
	if code, out := callInterrupted(t, "complete=true", "explore", "-workers", "1", "-census", file); code != 1 {
		t.Errorf("exit %d, want 1\n%s", code, out)
	}
	if _, err := os.Stat(file); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("interrupted census written to %s (stat: %v)", file, err)
	}
}

// TestBenchInterrupted: a SIGINT that lands after a benchmark's first
// cell has finished cuts a later cell of its row short, and bench prints
// no row for that benchmark: exit 1 and only the header and the closing
// line.
func TestBenchInterrupted(t *testing.T) {
	code, out := callInterrupted(t, "telemetry dekker/c11tester", "bench", "-bench", "dekker", "-runs", "20000", "-telemetry")
	if code != 1 || !strings.Contains(out, "(interrupted: partial results") {
		t.Fatalf("exit %d, want 1 with the interrupted line\n%s", code, out)
	}
	if row := regexp.MustCompile(`(?m)^dekker .*$`).FindString(out); row != "" {
		t.Errorf("interrupted row printed: %s", row)
	}
}

// sigintIgnored is whether this process started with SIGINT ignored,
// which a child process inherits. It is read before any test handles the
// signal, since a handler that is released leaves the report stale.
var sigintIgnored = signal.Ignored(os.Interrupt)

// TestSecondSignalKills: the first SIGINT cancels a command's campaign
// context and the second kills the process, so a campaign whose workers
// never drain can still be stopped from the terminal. The command process
// is this test binary, run again with the argument secondSignalChild: it
// starts the campaign group's signal drain and never returns.
func TestSecondSignalKills(t *testing.T) {
	const secondSignalChild = "second-signal-child"
	if flag.Arg(0) == secondSignalChild {
		c := newCmd("bench", os.Stdout, os.Stderr)
		cp, err := c.campaignFlags().start(c)
		if err != nil {
			fmt.Println(err)
			os.Exit(2)
		}
		fmt.Println("started")
		<-cp.Context.Done()
		fmt.Println("draining")
		time.Sleep(time.Minute) // a worker wedged outside the engine
		os.Exit(0)
	}
	if sigintIgnored {
		t.Skip("SIGINT is ignored here, and a child process inherits that")
	}

	child := exec.Command(os.Args[0], "-test.run=^TestSecondSignalKills$", secondSignalChild)
	stdout, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		child.Wait()
	}()
	defer func() {
		child.Process.Kill()
		<-exited
	}()
	lines := bufio.NewScanner(stdout)
	for _, want := range []string{"started", "draining"} {
		if !lines.Scan() || lines.Text() != want {
			t.Fatalf("child printed %q, want %q", lines.Text(), want)
		}
		if err := child.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("the second SIGINT did not kill the process within 5 s")
	}
	if ws, ok := child.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGINT {
		t.Fatalf("child ended with %v, want death by SIGINT", child.ProcessState)
	}
}

// TestPrintOutcomesIllegal: an outcome that the expectation forbids and
// the exploration reached is marked illegal, and only the forbidden
// outcomes no execution reached are listed as unreachable.
func TestPrintOutcomesIllegal(t *testing.T) {
	lt := litmus.SBRelaxed()
	counts, res := enumerate.Outcomes(lt.Program, engine.Options{}, enumerate.Config{Workers: 1},
		func(o *engine.Outcome) string { return lt.Outcome(o.FinalValues) })
	if !res.Complete || counts["a=0 b=0"] == 0 {
		t.Fatalf("SB+rlx: a=0 b=0 not reached: %v %+v", counts, res)
	}
	exp := litmus.Expectation{Forbidden: []string{"a=0 b=0", "a=2 b=2"}}
	var out bytes.Buffer
	if n := printOutcomes(&out, counts, exp, true); n != 1 {
		t.Errorf("%d illegal outcomes, want 1", n)
	}
	got := out.String()
	if !regexp.MustCompile(`(?m)^  \[a=0 b=0\] ×\d+ +✗ ILLEGAL$`).MatchString(got) {
		t.Errorf("reached forbidden outcome not marked ILLEGAL:\n%s", got)
	}
	if strings.Contains(got, `"a=0 b=0": unreachable`) {
		t.Errorf("reached forbidden outcome listed as unreachable:\n%s", got)
	}
	if !strings.Contains(got, `forbidden "a=2 b=2": unreachable ✓`) {
		t.Errorf("unreached forbidden outcome not listed:\n%s", got)
	}
}

// TestLitmusWorkersIdentical: the campaign workers of `pctwm litmus`
// share each test's outcome histogram, and the report, coverage lines
// included, is the same at every worker count.
func TestLitmusWorkersIdentical(t *testing.T) {
	args := []string{"litmus", "-runs", "300", "-coverage", "-workers"}
	code1, stdout1, stderr1 := call(append(args, "1")...)
	code4, stdout4, stderr4 := call(append(args, "4")...)
	if code1 != 0 || code4 != 0 {
		t.Fatalf("exit %d at -workers 1, %d at -workers 4\nstderr:\n%s\n%s", code1, code4, stderr1, stderr4)
	}
	if stdout1 != stdout4 {
		t.Fatalf("stdout differs between -workers 1 and 4:\n%s\n---\n%s", stdout1, stdout4)
	}
}

// panicStrategy is the random strategy with a Begin that panics on about
// one seed in four: a strategy bug that escapes the engine.
type panicStrategy struct{ engine.Strategy }

func (s panicStrategy) Begin(info engine.ProgramInfo, rng *rand.Rand) {
	doomed := rng.Intn(4) == 0
	s.Strategy.Begin(info, rng)
	if doomed {
		panic("strategy bug")
	}
}

// TestLitmusStrategyPanic: a trial whose strategy panicked fails its
// test and the command, though the campaign quarantines the panic and
// runs on.
func TestLitmusStrategyPanic(t *testing.T) {
	strategies["panicky"] = func(int, int) harness.StrategyFactory {
		return func(harness.Estimate) engine.Strategy { return panicStrategy{core.NewRandom()} }
	}
	defer delete(strategies, "panicky")
	code, stdout, stderr := call("litmus", "-strategy", "panicky", "-runs", "200")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	for _, line := range lines[:len(lines)-1] {
		if !strings.HasPrefix(line, "FAIL ") || !strings.Contains(line, "PANICS=") {
			t.Errorf("test with panicked trials not failed: %s", line)
		}
	}
	if want := fmt.Sprintf("%d conformance failure(s) under rc11", len(litmus.Suite())); lines[len(lines)-1] != want {
		t.Errorf("last line %q, want %q", lines[len(lines)-1], want)
	}
}
