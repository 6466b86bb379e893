#!/bin/sh
# Non-test Rust lines (everything above a file's first `#[cfg(test)]`)
# per crate and in total for crates/*/src -- the count ROADMAP item 2 and
# every simplicity PR's CHANGES entry quote. Run from the repo root.
# With an argument, exits 1 when dht-core + dht-sim exceed that many
# lines: CI passes the last accepted figure, so a change that grows the
# two crates has to lower it again or raise the number in the same diff.
set -eu
ceiling=${1:-}
count() {
    find "$@" -name '*.rs' -exec awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}' {} +
}
for dir in crates/*/src; do
    crate=${dir#crates/}
    printf '%-10s %6d\n' "${crate%/src}" "$(count "$dir")"
done
printf '%-10s %6d\n' total "$(count crates/*/src)"
core_sim=$(count crates/dht-core/src crates/dht-sim/src)
printf '%-10s %6d\n' core+sim "$core_sim"
if [ -n "$ceiling" ] && [ "$core_sim" -gt "$ceiling" ]; then
    echo "core+sim: $core_sim non-test lines, over the ceiling of $ceiling" >&2
    exit 1
fi
