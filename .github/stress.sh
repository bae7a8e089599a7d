#!/usr/bin/env bash
# stress.sh '<-run pattern>' <package>...
#
# Runs the race-detector stress pass of one CI step:
#   go test -race -count=2 -run '<pattern>' <package>...
# after checking that the pattern still selects at least one test in
# EVERY listed package. `go test -run` exits 0 when nothing matches, so
# a renamed or merged test would otherwise turn its stress step into a
# silent no-op.
set -euo pipefail

pattern=$1
shift
for pkg in "$@"; do
  # Not grep -q: it exits at the first match, go test then dies of
  # SIGPIPE, and pipefail reports the match as a failure.
  if ! go test -list "$pattern" "$pkg" | grep -E '^(Test|Fuzz)' >/dev/null; then
    echo "stress: pattern '$pattern' matches no test in $pkg" >&2
    exit 1
  fi
done
exec go test -race -count=2 -run "$pattern" "$@"
