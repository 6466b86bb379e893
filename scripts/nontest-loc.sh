#!/bin/sh
# Non-test Rust lines (everything above a file's first `#[cfg(test)]`)
# per crate and in total for crates/*/src -- the count ROADMAP item 2 and
# every simplicity PR's CHANGES entry quote. Run from the repo root.
# With an argument, exits 1 when dht-core + dht-sim exceed that many
# lines; with a second, also when the total for crates/*/src exceeds it.
# CI passes the last accepted figures, so a change that grows the crates
# has to lower them again or raise the numbers in the same diff.
set -eu
ceiling=${1:-}
total_ceiling=${2:-}
count() {
    find "$@" -name '*.rs' -exec awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}' {} +
}
for dir in crates/*/src; do
    crate=${dir#crates/}
    printf '%-10s %6d\n' "${crate%/src}" "$(count "$dir")"
done
total=$(count crates/*/src)
printf '%-10s %6d\n' total "$total"
core_sim=$(count crates/dht-core/src crates/dht-sim/src)
printf '%-10s %6d\n' core+sim "$core_sim"
status=0
if [ -n "$ceiling" ] && [ "$core_sim" -gt "$ceiling" ]; then
    echo "core+sim: $core_sim non-test lines, over the ceiling of $ceiling" >&2
    status=1
fi
if [ -n "$total_ceiling" ] && [ "$total" -gt "$total_ceiling" ]; then
    echo "total: $total non-test lines, over the ceiling of $total_ceiling" >&2
    status=1
fi
exit $status
