#!/usr/bin/env bash
# The performance gate. Runs the repository benchmark (bench/) on the
# commit BASE and on this checkout, alternately on the same machine, and
# exits 1 when `bench/run.sh compare` finds an end-to-end metric worse
# than its bound in BENCHMARK.json. CI passes the merge base with the
# target branch, or the previous tip for a push; locally:
#
#   bash .github/bench-gate.sh BASE
#
# BASE is checked out as a second worktree under .bench_build/gate, which
# also keeps each side's results (base.jsonl, change.jsonl) and output.
set -euo pipefail
base=${1:?usage: bash .github/bench-gate.sh BASE}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/gate"
rm -rf "$out"
git -C "$root" worktree prune
mkdir -p "$out"
git -C "$root" worktree add --detach "$out/base" "$base"
trap 'git -C "$root" worktree remove --force "$out/base"' EXIT

# The two runs of a workload and seed follow each other, and the side that
# runs first alternates by seed, so a drift of the host between them does
# not always favour the same side.
for seed in 1 2 3; do
	sides="base change"
	if [ $((seed % 2)) -eq 0 ]; then sides="change base"; fi
	for w in bughunt apps models explore checked; do
		for side in $sides; do
			dir=$root
			if [ "$side" = base ]; then dir=$out/base; fi
			echo "seed $seed: $w on $side"
			bash "$dir/bench/run.sh" --workload "$w" --seed "$seed" --seconds 5 \
				--out "$out/$side.jsonl" >>"$out/$side.log"
		done
	done
done
cd "$root"
bash bench/run.sh compare "$out/base.jsonl" "$out/change.jsonl"
