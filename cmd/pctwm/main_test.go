package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
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

// TestExploreCensusInterrupted: a SIGINT that lands after the outcome
// histogram, while explore -census enumerates the census, is an
// interruption like one during the histogram: exit 1 and no census file.
func TestExploreCensusInterrupted(t *testing.T) {
	// Catch the signal here too, so that one delivered after the command
	// has released its own handler cannot kill the test binary.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)

	file := filepath.Join(t.TempDir(), "census.json")
	stdout := &watchedOutput{want: "complete=true", seen: make(chan struct{})}
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- pctwm([]string{"explore", "-t", "CoRR2", "-workers", "1", "-census", file}, stdout, &stderr)
	}()
	select {
	case <-stdout.seen:
	case code := <-done:
		t.Fatalf("exit %d before the histogram completed\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	<-sig
	if code := <-done; code != 1 {
		t.Errorf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if _, err := os.Stat(file); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("interrupted census written to %s (stat: %v)", file, err)
	}
}
