// Parallel exhaustive exploration: the decision tree is expanded
// serially to a shallow frontier, worker goroutines (each owning one
// pooled engine.Runner) claim the disjoint subtrees below the frontier
// in frontier order, and per-subtree outcome counts are merged in
// lexicographic frontier order so the final counts and Result are
// bit-identical to a serial exploration — including where a run limit
// truncates the tree.
//
// Determinism argument. The frontier units partition the leaf set, and
// their order is the depth-first script order, so concatenating the
// per-unit leaf sequences reproduces the serial visit sequence exactly.
// Outcome counting is commutative within a unit and the merge walks
// units in order, so an unlimited exploration trivially matches serial.
// With a limit L, the serial explorer visits exactly the first L leaves;
// the merge reproduces that cut by accumulating unit run counts in
// order and re-descending the one boundary subtree that straddles leaf
// L with exactly the remaining budget (the subtree's leaves enumerate
// in the same depth-first order, so "its first k leaves" is
// well-defined and worker-count independent). Units past the cut are
// discarded; a stop flag lets their workers quit early, which changes
// only how much discarded work was performed (telemetry), never the
// merged result.
package enumerate

import (
	"slices"
	"sync"
	"sync/atomic"

	"pctwm/internal/engine"
	"pctwm/internal/telemetry"
)

const (
	// shardFactor sets how many frontier subtrees the expansion aims for
	// per worker. More shards mean better load balance (subtree sizes are
	// wildly skewed) at the cost of a longer serial expansion phase.
	shardFactor = 8
	// maxFrontierDepth bounds the expansion depth, guarding against
	// degenerate trees (long arity-1 chains) that would otherwise expand
	// forever without producing new shards.
	maxFrontierDepth = 64
)

// unit is one shard of the decision tree in frontier order: the subtree
// of every execution whose decision sequence extends prefix.
type unit struct {
	prefix []int
	// want holds the recorded arity at each prefix position (drift
	// detection on re-descent).
	want []int
	// tail holds the discovery run's recorded arities below prefix (its
	// all-zeros descent); an empty tail means the run ended exactly at
	// prefix — the unit is a single leaf.
	tail []int
}

// internal reports whether the discovery run went on past prefix: only
// then can the unit's subtree hold more than one leaf.
func (u unit) internal() bool { return len(u.tail) > 0 }

func appendCopy(s []int, v int) []int {
	out := make([]int, len(s)+1)
	copy(out, s)
	out[len(s)] = v
	return out
}

// expandFrontier grows the frontier level by level until it holds at
// least target units, the tree is fully expanded, or the depth budget
// runs out. Each internal node's 0-child inherits the parent's
// discovery run (the run that revealed the node already recorded the
// arities of the whole all-zeros descent below it), so expansion costs
// one engine run per non-zero child only — the trie of recorded
// arities is what lets re-descents skip already-known structure.
func expandFrontier(r *engine.Runner, target int, tel *telemetry.EngineCounters,
	stop func() bool) (level []unit, interrupted bool, drift *DriftError) {
	s := &scripted{}
	probe := func(prefix, want []int) (unit, *DriftError) {
		s.run(r, prefix, want, tel)
		if s.drift != nil {
			return unit{}, s.drift
		}
		return unit{prefix, want, append([]int(nil), s.arity[len(prefix):]...)}, nil
	}

	if stop != nil && stop() {
		return nil, true, nil
	}
	root, derr := probe(nil, nil)
	if derr != nil {
		return nil, false, derr
	}
	level = []unit{root}
	for depth := 0; depth < maxFrontierDepth && len(level) < target && slices.ContainsFunc(level, unit.internal); depth++ {
		if stop != nil && stop() {
			return nil, true, nil
		}
		next := make([]unit, 0, 2*len(level))
		for _, u := range level {
			if !u.internal() {
				next = append(next, u)
				continue
			}
			arity := u.tail[0]
			want := appendCopy(u.want, arity)
			// Child 0 is the continuation of the discovery run.
			next = append(next, unit{appendCopy(u.prefix, 0), want, u.tail[1:]})
			for c := 1; c < arity; c++ {
				child, derr := probe(appendCopy(u.prefix, c), want)
				if derr != nil {
					return nil, false, derr
				}
				next = append(next, child)
			}
		}
		level = next
	}
	return level, false, nil
}

// explorePool coordinates the workers: a claim cursor over the units,
// per-unit results in frontier order, a coverage monitor that raises
// the stop flag once the ordered prefix of finalized units covers the
// run limit, and a drift flag that aborts everything.
type explorePool struct {
	units   []unit
	next    atomic.Int64
	results []*subtreeResult
	counts  []map[string]int
	limit   int
	ctxDone func() bool
	mu      sync.Mutex
	stop    atomic.Bool
}

// stopped reports whether workers should quit: the run limit is
// covered, a unit drifted, or the context was canceled.
func (e *explorePool) stopped() bool {
	return e.stop.Load() || (e.ctxDone != nil && e.ctxDone())
}

// finish records a unit's exploration result and re-evaluates coverage.
func (e *explorePool) finish(i int, r *subtreeResult, m map[string]int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.results[i] = r
	e.counts[i] = m
	if r.drift != nil {
		e.stop.Store(true)
		return
	}
	e.updateCoverage()
}

// updateCoverage raises the stop flag when the contiguous prefix of
// finalized units already accounts for limit executions: everything
// after the covering point will be discarded by the merge, so workers
// still exploring it may quit. Called with mu held.
func (e *explorePool) updateCoverage() {
	if e.limit <= 0 {
		return
	}
	covered := 0
	for _, r := range e.results {
		if r == nil || r.stopped {
			return
		}
		covered += r.runs
		if covered >= e.limit {
			e.stop.Store(true)
			return
		}
	}
}

// work is one worker's loop: claim the next unit in frontier order,
// explore it on r, and record the result, until every unit is claimed.
// Units claimed after the stop flag rose are recorded as stopped
// without an engine run; the merge never reaches them.
func (e *explorePool) work(r *engine.Runner, tel *telemetry.EngineCounters, key func(*engine.Outcome) string) {
	for {
		i := int(e.next.Add(1)) - 1
		if i >= len(e.units) {
			return
		}
		sub := subtreeResult{stopped: true}
		var m map[string]int
		if !e.stopped() {
			m = make(map[string]int)
			sub = dfs(r, e.units[i].prefix, e.units[i].want, e.limit, tel, e.stopped, tally(m, key))
		}
		if sub.stopped && tel != nil {
			tel.ExplorePruned++
		}
		e.finish(i, &sub, m)
	}
}

// parallelOutcomes is the Workers != 1 path of Outcomes. The
// coordinator's Runner runs only before the workers start (expansion)
// and after they drain (merge re-descents), so it counts into the
// caller's telemetry directly; each worker counts into a private shard,
// merged after the pool drains (the RunCampaign contract).
func parallelOutcomes(p *engine.Program, opts engine.Options, cfg Config, key func(*engine.Outcome) string) (map[string]int, Result) {
	workers := resolveWorkers(cfg.Workers)

	// Phase 1: serial frontier expansion on the coordinator's Runner.
	ctxDone := ctxStop(cfg.Context)
	rc := engine.NewRunner(p, opts)
	defer rc.Close()
	units, interrupted, derr := expandFrontier(rc, workers*shardFactor, opts.Telemetry, ctxDone)
	if derr != nil {
		return nil, Result{Drift: derr}
	}
	if interrupted {
		return make(map[string]int), Result{Interrupted: true}
	}
	if !slices.ContainsFunc(units, unit.internal) {
		// Expansion resolved the whole tree into single leaves: it is too
		// small to repay starting the workers' Runners, so explore it
		// serially on the coordinator's warm Runner instead.
		return serialOutcomes(rc, opts.Telemetry, cfg, key)
	}

	// Phase 2: the workers claim units in frontier order.
	pool := &explorePool{
		units:   units,
		results: make([]*subtreeResult, len(units)),
		counts:  make([]map[string]int, len(units)),
		limit:   cfg.Limit,
		ctxDone: ctxDone,
	}
	shards := make([]*telemetry.EngineCounters, min(workers, len(units)))
	var wg sync.WaitGroup
	for w := range shards {
		if opts.Telemetry != nil {
			shards[w] = &telemetry.EngineCounters{}
		}
		wg.Add(1)
		go func(tel *telemetry.EngineCounters) {
			defer wg.Done()
			wopts := opts
			wopts.Telemetry = tel
			r := engine.NewRunner(p, wopts)
			defer r.Close()
			pool.work(r, tel, key)
		}(shards[w])
	}
	wg.Wait()
	if opts.Telemetry != nil {
		for _, s := range shards {
			opts.Telemetry.Merge(s)
		}
	}

	// Any drift aborts the whole exploration; report the one from the
	// lexicographically earliest unit for stability.
	for _, r := range pool.results {
		if r.drift != nil {
			return nil, Result{Drift: r.drift}
		}
	}

	// Phase 3: deterministic merge in frontier order.
	counts := make(map[string]int)
	res := Result{Complete: true}
	for i, u := range units {
		if ctxDone != nil && ctxDone() {
			// Canceled mid-merge: report the partial prefix merged so far
			// without re-descending the remaining units (a re-descent would
			// defeat the cancellation).
			res.Complete = false
			res.Interrupted = true
			break
		}
		if cfg.Limit > 0 && res.Runs >= cfg.Limit {
			// The limit cut the tree before this unit; serial would have
			// stopped here too.
			res.Complete = false
			break
		}
		r, m := pool.results[i], pool.counts[i]
		remaining := 0
		if cfg.Limit > 0 {
			remaining = cfg.Limit - res.Runs
		}
		if r.stopped || (cfg.Limit > 0 && r.runs > remaining) {
			// The unit was skipped, stopped early, or explored past the
			// budget that is actually left for it: re-descend it serially
			// with exactly the remaining budget so the merged counts match
			// the serial cut bit for bit. Cancellation still stops the
			// re-descent between executions.
			m = make(map[string]int)
			sub := dfs(rc, u.prefix, u.want, remaining, opts.Telemetry, ctxDone, tally(m, key))
			if sub.drift != nil {
				return nil, Result{Drift: sub.drift}
			}
			r = &sub
		}
		for k, n := range m {
			counts[k] += n
		}
		res.Runs += r.runs
		res.Truncated += r.truncated
		if !r.complete {
			res.Complete = false
		}
		if r.stopped {
			res.Complete = false
			res.Interrupted = true
			break
		}
	}
	return counts, res
}
