#!/bin/sh
# Non-test Rust lines (everything above a file's first `#[cfg(test)]`)
# per crate and in total for crates/*/src -- the count ROADMAP item 2 and
# every simplicity PR's CHANGES entry quote. Run from the repo root.
set -eu
count() {
    find "$@" -name '*.rs' -exec awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}' {} +
}
for dir in crates/*/src; do
    crate=${dir#crates/}
    printf '%-10s %6d\n' "${crate%/src}" "$(count "$dir")"
done
printf '%-10s %6d\n' total "$(count crates/*/src)"
printf '%-10s %6d\n' core+sim "$(count crates/dht-core/src crates/dht-sim/src)"
