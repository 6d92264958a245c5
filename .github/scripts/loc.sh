#!/usr/bin/env bash
# Usage: loc.sh
# Prints the non-test Go lines of every package outside benchmark/ and their
# total — `find . -name '*.go' -not -name '*_test.go' -not -path
# './benchmark/*' | xargs cat | wc -l`, the figure a simplicity PR records in
# CHANGES.md, broken down by directory so the PR and CI quote the same number.
set -euo pipefail
cd "$(dirname "$0")/../.."
find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -print0 |
  xargs -0 wc -l |
  awk '$2 != "total" { dir = $2; sub(/^\.\//, "", dir); if (!sub(/\/[^\/]*$/, "", dir)) dir = "."; n[dir] += $1; total += $1 }
       END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", total }'
