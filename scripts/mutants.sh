#!/bin/sh
# Committed mutants: every tests/mutants/*.patch is a deliberate bug, and
# its header names the test that must catch it (`Killed-by: <cargo test
# arguments>`). For each patch, in a scratch copy of the checkout's
# tracked files, this script
#   1. runs the named test on the unchanged copy, which must pass;
#   2. applies the patch with `git apply` and runs the test again, which
#      must compile and fail;
#   3. reverts the patch.
# It exits 1 if any mutant survives, does not compile, or names a test
# that does not run. Offline, `git` and `cargo` only. Run from the repo
# root: `./scripts/mutants.sh [patch...]` (default: every patch).
# MUTANTS_DIR keeps the scratch copy, which must lie outside any git
# checkout, for a second run to reuse its `target/` (default: a temporary
# directory, removed on exit).
set -eu
root=$(pwd)
[ -d tests/mutants ] || { echo "run from the repository root" >&2; exit 2; }
if [ "$#" -eq 0 ]; then
    set -- tests/mutants/*.patch
fi
if [ -n "${MUTANTS_DIR:-}" ]; then
    work=$MUTANTS_DIR
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
git ls-files -z | tar --null -T - -cf - | tar -xf - -C "$work"
# The copy keeps the checkout's mtimes, which can be older than a build
# a last run made from a mutated file: cargo would call that build fresh.
sed -n 's|^+++ b/||p' tests/mutants/*.patch | sort -u | (cd "$work" && xargs touch)

# Runs the named test in the scratch copy; prints cargo's summary line.
run_test() {
    # shellcheck disable=SC2086 # the Killed-by arguments are words
    (cd "$work" && cargo test --offline -q $1 -- --exact 2>&1) >"$work/last.log" || true
    grep -E '^test result: ' "$work/last.log" | tail -1
}

failed=0
for patch in "$@"; do
    name=$(basename "$patch" .patch)
    args=$(sed -n 's/^Killed-by: //p' "$patch")
    if [ -z "$args" ]; then
        echo "$name: no Killed-by line" >&2
        failed=1
        continue
    fi
    clean=$(run_test "$args")
    case $clean in
    *" 1 passed; 0 failed"*) ;;
    *)
        echo "$name: \`cargo test $args\` does not pass on the unchanged tree: ${clean:-no test ran}" >&2
        failed=1
        continue
        ;;
    esac
    (cd "$work" && git apply "$root/$patch")
    mutated=$(run_test "$args")
    (cd "$work" && git apply -R "$root/$patch")
    case $mutated in
    *" 0 passed; 1 failed"*) echo "$name: killed by $args" ;;
    "")
        echo "$name: the mutant does not compile" >&2
        tail -n 20 "$work/last.log" >&2
        failed=1
        ;;
    *)
        echo "$name: SURVIVED $args ($mutated)" >&2
        failed=1
        ;;
    esac
done
exit $failed
