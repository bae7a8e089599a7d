#!/usr/bin/env bash
# bench_counts.sh [--update]
#
# Runs the repository benchmark's quick traced gate on every workload,
#   bash bench/run.sh --workload <w> --seed 1 --quick --trace 1
# which already exits non-zero on a wrong exact answer, on failed > 0 and
# on a facade/core visited mismatch, and then compares the exact-count
# metrics it printed with .github/bench_counts.expected. The counts are
# a function of the code and the seed alone — they repeat digit for digit
# — so a difference means the change altered how much work a search
# does. A change that does so on purpose commits the new values with
# --update and says so; anything else is a regression to look at.
# rw-sharded runs under GOMAXPROCS=2: a sharded read is dealt onto
# min(shards, GOMAXPROCS) stripes and carries its bound within a stripe,
# so its counts depend on that number — and on nothing else of the host.
set -euo pipefail
cd "$(dirname "$0")/.."

expected=.github/bench_counts.expected
counts='^core\.(visited_per_query|clusters_examined_per_query|sem_dist_calcs_per_query|approx_visited_per_query) '
mkdir -p .bench_build # bench/run.sh's own scratch directory, git-ignored
got=.bench_build/bench_counts.got
: >"$got"

for w in exact-flat approx-yelp-batch http-hotcold rw-sharded; do
  procs=
  [ "$w" = rw-sharded ] && procs=GOMAXPROCS=2
  out=$(env $procs bash bench/run.sh --workload "$w" --seed 1 --quick --trace 1)
  grep -E "$counts" <<<"$out" | awk -v w="$w" '{print w, $1, $2}' >>"$got"
done

if [ "${1:-}" = "--update" ]; then
  cp "$got" "$expected"
  echo "bench_counts: wrote $expected"
  exit 0
fi
if ! diff -u "$expected" "$got"; then
  echo "bench_counts: exact-count metrics differ from $expected (see the diff above);" >&2
  echo "bench_counts: if the change moves them on purpose, run .github/bench_counts.sh --update and say so in the PR" >&2
  exit 1
fi
echo "bench_counts: $(wc -l <"$expected") counts match"
