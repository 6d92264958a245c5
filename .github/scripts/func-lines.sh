#!/usr/bin/env bash
# Usage: func-lines.sh file.go max [name=max ...]
# Fails when a function of the gofmt'd Go file spans more than max lines,
# counted from its `func` line to its closing brace, or when a function named
# in a name=max pair spans more than that pair's own bound.
set -euo pipefail
file=$1 max=$2
shift 2
gofmt "$file" | awk -v file="$file" -v max="$max" -v named="$*" '
  BEGIN { n = split(named, kv, " "); for (i = 1; i <= n; i++) { split(kv[i], p, "="); bound[p[1]] = p[2] } }
  /^func / {
    name = $0; sub(/^func (\([^)]*\) )?/, "", name); sub(/[[(].*/, "", name)
    start = /}$/ ? 0 : NR # a one-line function ends where it starts
  }
  /^}/ && start {
    lines = NR - start + 1; lim = (name in bound) ? bound[name] : max
    if (lines > lim) { printf "%s: %s is %d lines, over %d\n", file, name, lines, lim; bad = 1 }
    start = 0
  }
  END { exit bad }'
