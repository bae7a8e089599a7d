#!/usr/bin/env bash
# stress.sh '<-run pattern>' <package>...
#
# Runs the race-detector stress pass of one CI step:
#   go test -race -count=2 -run '<pattern>' <package>...
# after checking that the pattern still selects at least one test in
# EVERY listed package, and that each of its '|'-separated terms selects
# at least one test in SOME listed package. `go test -run` exits 0 when
# nothing matches, so a renamed or merged test would otherwise turn its
# stress step, or its term of the step, into a silent no-op. The terms
# are split at every '|', so a pattern must not group alternatives.
set -euo pipefail

pattern=$1
shift
names=""
for pkg in "$@"; do
  listed=$(go test -list "$pattern" "$pkg" | grep -E '^(Test|Fuzz)' || true)
  if [ -z "$listed" ]; then
    echo "stress: pattern '$pattern' matches no test in $pkg" >&2
    exit 1
  fi
  names+="$listed"$'\n'
done
IFS='|' read -ra terms <<<"$pattern"
for term in "${terms[@]}"; do
  if ! grep -E -- "$term" <<<"$names" >/dev/null; then
    echo "stress: term '$term' of pattern '$pattern' matches no test in $*" >&2
    exit 1
  fi
done
exec go test -race -count=2 -run "$pattern" "$@"
