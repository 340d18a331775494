package harness

import (
	"testing"

	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/engine"
)

// TestParallelMatchesSerial: a pool of four workers visits the same seeds
// as a pool of one and therefore produces identical hit counts.
func TestParallelMatchesSerial(t *testing.T) {
	b, err := benchprog.ByName("rwlock")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Program(0)
	opts := b.Options()
	newStrategy := func() engine.Strategy { return core.NewPCTWM(2, 1, 10) }

	serial := RunCampaign(prog, b.Detect, newStrategy, 300, 7, opts, Campaign{Workers: 1})
	parallel := RunCampaign(prog, b.Detect, newStrategy, 300, 7, opts, Campaign{Workers: 4})
	if serial.Hits != parallel.Hits || serial.Runs != parallel.Runs {
		t.Fatalf("parallel %d/%d != serial %d/%d",
			parallel.Hits, parallel.Runs, serial.Hits, serial.Runs)
	}
	if serial.TotalEvents != parallel.TotalEvents {
		t.Fatalf("event totals differ: %d vs %d", parallel.TotalEvents, serial.TotalEvents)
	}
}

// TestParallelSingleWorkerFallback: degenerate worker counts (one
// worker, more workers than rounds, a negative count) still run every
// round exactly once.
func TestParallelSingleWorkerFallback(t *testing.T) {
	b, _ := benchprog.ByName("dekker")
	prog := b.Program(0)
	for _, workers := range []int{1, 64, -3} {
		res := RunCampaign(prog, b.Detect, func() engine.Strategy { return core.NewRandom() },
			10, 1, b.Options(), Campaign{Workers: workers})
		if res.Runs != 10 {
			t.Fatalf("workers=%d: runs %d", workers, res.Runs)
		}
	}
}

// TestPooledWorkerCountsAgree: every worker count visits the same seeds,
// so the aggregate counters are identical; this test doubles as the
// `go test -race` exercise of the streaming pool on two structurally
// different benchmark programs.
func TestPooledWorkerCountsAgree(t *testing.T) {
	for _, name := range []string{"rwlock", "msqueue"} {
		t.Run(name, func(t *testing.T) {
			b, err := benchprog.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prog := b.Program(0)
			opts := b.Options()
			newStrategy := func() engine.Strategy { return core.NewPCTWM(2, 1, 25) }

			ref := RunCampaign(prog, b.Detect, newStrategy, 120, 11, opts, Campaign{Workers: 1})
			for _, workers := range []int{2, 3, 8, 0} {
				got := RunCampaign(prog, b.Detect, newStrategy, 120, 11, opts, Campaign{Workers: workers})
				if got.Hits != ref.Hits || got.TotalEvents != ref.TotalEvents ||
					got.Aborted != ref.Aborted || got.Deadlock != ref.Deadlock {
					t.Fatalf("workers=%d diverges from one worker: %+v vs %+v", workers, got, ref)
				}
			}
		})
	}
}

// TestTrialResultWall: Wall measures the batch, Elapsed sums per-run time.
func TestTrialResultWall(t *testing.T) {
	b, _ := benchprog.ByName("dekker")
	prog := b.Program(0)
	res := RunCampaign(prog, b.Detect, func() engine.Strategy { return core.NewRandom() },
		50, 1, b.Options(), Campaign{Workers: 1})
	if res.Wall <= 0 {
		t.Fatalf("wall time not measured: %+v", res)
	}
	if res.Elapsed <= 0 {
		t.Fatalf("per-run time not summed: %+v", res)
	}
	if res.Wall < res.Elapsed/2 {
		t.Fatalf("one-worker wall %v implausibly below summed run time %v", res.Wall, res.Elapsed)
	}
}
