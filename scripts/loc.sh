#!/bin/sh
# Non-test code lines per source directory: non-blank lines that do not
# start with `//`, counted in each `.rs` file up to its first column-0
# `#[cfg(test)]`. The same count EXPERIMENTS.md reports code deltas in.
#
# Usage: scripts/loc.sh [DIR ...]
#   default DIRs: crates/datalog/src crates/multilog/src crates/cli/src
# Prints one `<lines> <dir>` line per directory, then `<lines> total`.
set -eu
[ "$#" -gt 0 ] || set -- crates/datalog/src crates/multilog/src crates/cli/src
total=0
for dir in "$@"; do
  n=0
  for f in "$dir"/*.rs; do
    [ -e "$f" ] || continue
    c=$(awk '/^#\[cfg\(test\)\]/{exit} { t=$0; sub(/^[[:space:]]+/, "", t);
             if (t != "" && substr(t,1,2) != "//") c++ } END{print c+0}' "$f")
    n=$((n + c))
  done
  echo "$n $dir"
  total=$((total + n))
done
echo "$total total"
