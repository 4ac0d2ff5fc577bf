#!/bin/sh
# Mutation check: apply each patch under scripts/mutants/ to a fresh
# clone of the committed tree (HEAD) and run the tests its header names,
# each an expected killer: the mutant must make every one of them fail.
#
# Usage: scripts/mutate.sh [PATCH ...]
#   default: every scripts/mutants/*.patch
#
# A patch starts with header lines, before the diff:
#   # mutant: <what the patch breaks>
#   # kill: <cargo test arguments>        (one line per expected killer)
# for example `# kill: -p multilog-core --lib reduce::tests::classifier`.
#
# Prints `killed` or `survived` for each patch and killer, then a total.
# A killer counts only when a test fails: a mutant that does not build
# kills nothing. Exits 1 if an expected killer let its mutant survive,
# 2 if a patch does not apply or its tree does not build. Needs sh, git
# and cargo; builds offline in a temporary directory it removes on exit.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
[ "$#" -gt 0 ] || set -- "$root"/scripts/mutants/*.patch
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
git clone --quiet "$root" "$work/tree"
export CARGO_TARGET_DIR="$work/target"
killed=0
survived=0
for patch in "$@"; do
  name=$(basename "$patch" .patch)
  git -C "$work/tree" checkout --quiet -- .
  if ! git -C "$work/tree" apply "$patch"; then
    echo "error: $name does not apply" >&2
    exit 2
  fi
  while IFS= read -r line; do
    case "$line" in
      "# kill: "*) args=${line#"# kill: "} ;;
      *) continue ;;
    esac
    # Word splitting turns the line into cargo arguments.
    # shellcheck disable=SC2086
    if (cd "$work/tree" && cargo test --offline -q $args >"$work/log" 2>&1); then
      survived=$((survived + 1))
      echo "$name: survived $args"
    elif grep -q "could not compile" "$work/log"; then
      cat "$work/log" >&2
      echo "error: $name does not build" >&2
      exit 2
    else
      killed=$((killed + 1))
      echo "$name: killed by $args"
    fi
  done <"$patch"
done
echo "total: $killed killed, $survived survived"
[ "$survived" -eq 0 ]
