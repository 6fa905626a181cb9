#!/usr/bin/env bash
# Mutation catalogue: each scripts/mutants/*.patch is a hand-written
# mutant of the tree. Its header names the one test that must kill it:
#
#   # mutant: what the patch breaks
#   # test: <cargo test arguments, e.g. -p sb-control --lib NAME>
#
# The script copies the tracked files of the working tree to a scratch
# directory outside the repository, then for each patch: applies it,
# builds, runs the named test in release mode, and reverts the patch.
# A mutant is "killed" when that test fails, "SURVIVED" when it passes,
# and "BROKEN" when the patch does not apply or the tree does not build.
# Exits nonzero unless every mutant is killed.
#
# Each mutant costs a rebuild, so this is not part of tier-1 or
# scripts/verify.sh. The copy and its build cache live in
# $MUTANTS_DIR (default: a fresh mktemp -d, removed on exit).
#
# Usage: scripts/mutants.sh [PATCH...]   (default: every patch)
set -euo pipefail
repo="$(cd "$(dirname "$0")/.." && pwd)"

if [ -n "${MUTANTS_DIR:-}" ]; then
    work="$MUTANTS_DIR"
    mkdir -p "$work"
else
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
fi
tree="$work/tree"
rm -rf "$tree"
mkdir -p "$tree"
(cd "$repo" && git ls-files -z | xargs -0 cp --parents -t "$tree")
export CARGO_TARGET_DIR="$work/target"

if [ "$#" -eq 0 ]; then
    set -- "$repo"/scripts/mutants/*.patch
fi

failed=0
for p in "$@"; do
    name="$(basename "$p" .patch)"
    read -r -a test_args <<<"$(sed -n 's/^# test: //p' "$p" | head -n 1)"
    if [ "${#test_args[@]}" -eq 0 ]; then
        echo "BROKEN    $name (no '# test:' header)"
        failed=1
        continue
    fi
    if ! patch -s -p1 -d "$tree" <"$p"; then
        echo "BROKEN    $name (does not apply)"
        failed=1
        continue
    fi
    if ! (cd "$tree" && cargo test --offline --release -q --no-run "${test_args[@]}") \
        >"$work/$name.log" 2>&1; then
        echo "BROKEN    $name (does not build; see $work/$name.log)"
        failed=1
    elif (cd "$tree" && cargo test --offline --release -q "${test_args[@]}") \
        >>"$work/$name.log" 2>&1; then
        echo "SURVIVED  $name (${test_args[*]} passes)"
        failed=1
    else
        echo "killed    $name"
    fi
    patch -s -R -p1 -d "$tree" <"$p"
done
exit "$failed"
