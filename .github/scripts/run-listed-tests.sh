#!/usr/bin/env bash
# Usage: run-listed-tests.sh 'TestA|TestB|...' pkg...
# Runs the named tests under -race, after checking with `go test -list` that
# every name in the alternation exists in one of the packages: `go test -run`
# passes silently when a name matches nothing, so a deleted or renamed test
# would otherwise drop out of the step unnoticed.
set -euo pipefail
names=$1
shift
listed=$(go test -list "$names" "$@")
for n in ${names//|/ }; do
  grep -qx "$n" <<<"$listed" || { echo "stale test name in -run: $n" >&2; exit 1; }
done
go test -race -count=1 -run "$names" "$@"
