#!/bin/sh
# Alternating parent/change runs of the repo benchmark -- the rule of
# /BENCHMARK.json's driver and of every perf PR's CHANGES entry, as one
# command. Run from anywhere inside the repo:
#
#   scripts/bench-pairs.sh <parent-ref> <workload> [pairs=10]
#   scripts/bench-pairs.sh <parent-ref> --smoke    [pairs=10]
#
# Checks <parent-ref> out as a detached `git worktree` under
# bench-out/pairs/ (so its runs' `git` header names the parent; the
# worktree is removed on exit, its build kept in bench-out/pairs/target-*),
# builds both benchmarks, runs
# `pairs` pairs on seeds 101, 102, ... -- odd pairs parent first, even
# pairs change first -- and prints, per host metric, each side's median
# and quartiles, how many pairs the change won, every value read, and the
# verdict on its spread: each side's inter-quartile distance against
# BENCHMARK.json's bound x the parent's median (`ok` / `OVER` -- a metric
# that is OVER is unresolved, not unchanged) unless every run of the
# change reads better than every run of the parent (`clear: yes`).
# Sim metrics and fingerprints must agree seed by seed; exit 1 if not,
# after naming, per seed, each sim metric that differs with both values
# (`bytes_per_node 302.43 -> 297.9`) and whether the fingerprint does, so
# a declared move of one sim metric reads apart from an undeclared one.
# After the host metrics, per kind of the runs' kind table: each side's
# median and quartiles, their ratio and how many pairs the change won for
# lookup/s, ns/hop, cycles/s, audit n/s and B/node, so a geomean that
# moved names the kind that moved it, a lookup/s that moved shows whether
# the hop did, and a kind's swing can be read against its spread.
# The header names the commit each side was built from; a change side
# with uncommitted edits is named as HEAD plus `git diff --shortstat`
# (the runs' own `git` headers read HEAD either way).
# Every run's full output stays in bench-out/pairs/<side>-<seed>.out.
set -eu
[ $# -ge 2 ] || {
    echo "usage: $0 <parent-ref> <workload>|--smoke [pairs=10]" >&2
    exit 2
}
cd "$(git rev-parse --show-toplevel)"
sha=$(git rev-parse --short "$1^{commit}")
pairs=${3:-10}
if [ "$2" = --smoke ]; then
    what=--smoke
else
    seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
    what="--workload $2 --seconds $seconds --trace 0"
fi

head=$(git rev-parse --short HEAD)
edits=$(git diff --shortstat HEAD)
out=bench-out/pairs
parent=$out/src-$sha
mkdir -p "$out"
rm -f "$out"/*.out
rm -rf "$parent"
git worktree prune
git worktree add --quiet --detach "$parent" "$sha"
trap 'git worktree remove --force "$parent"' EXIT
cargo build --release --offline --quiet --manifest-path "$parent/benchmark/Cargo.toml" \
    --target-dir "$out/target-$sha"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# run <side> <seed>: each side from its own tree, for its `git` header.
run() {
    if [ "$1" = parent ]; then
        root=$parent bin=$(pwd)/$out/target-$sha/release/benchmark
    else
        root=. bin=$(pwd)/benchmark/target/release/benchmark
    fi
    # shellcheck disable=SC2086  # $what is a word list
    (cd "$root" && "$bin" $what --seed "$2") >"$out/$1-$2.out"
}
i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((101 + i))
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
    i=$((i + 1))
done

echo "# parent $sha vs working tree: $2, $pairs pairs, seeds 101..$((100 + pairs))"
if [ -n "$edits" ]; then
    echo "# working tree: HEAD $head +$edits"
else
    echo "# working tree: HEAD $head, no tracked file edited"
fi
echo "# $(nproc) cores, $(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo | head -n 1)"
awk '
# q-quantile (linear interpolation) of v[1..n], sorted ascending.
function quantile(v, n, q,    h, lo) {
    h = 1 + (n - 1) * q; lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function summary(side, m,    v, n, s) {
    n = 0
    for (s = 1; s <= seeds; s++) if ((side, m, seed[s]) in val) v[++n] = val[side, m, seed[s]]
    sort(v, n)
    med[side] = quantile(v, n, 0.5); iqr[side] = quantile(v, n, 0.75) - quantile(v, n, 0.25)
    edge[side] = (better[m] == "lower") == (side == "change") ? v[n] : v[1]
    return sprintf("%14.6g [%.6g .. %.6g]", med[side], quantile(v, n, 0.25), quantile(v, n, 0.75))
}
# "<side> iqr <distance> ok|OVER": the inter-quartile distance of one side
# against the bound of the metric, a share of the median of the parent.
function spread(side, m) {
    return sprintf("%s iqr %.4g %s", side, iqr[side], iqr[side] <= bound[m] * med["parent"] ? "ok" : "OVER")
}
# Sorts v[1..n] ascending.
function sort(v, n,    j, k, t) {
    for (j = 2; j <= n; j++) { t = v[j]; for (k = j - 1; k >= 1 && v[k] > t; k--) v[k + 1] = v[k]; v[k + 1] = t }
}
# Median and quartiles over the seeds of column c in the row of kind k on
# one side, skipping "-" cells; "" if every cell is "-".
function ksummary(side, k, c,    v, n, s, x) {
    n = 0
    for (s = 1; s <= seeds; s++) {
        x = kv[side, k, c, seed[s]]
        if (x != "" && x != "-") v[++n] = x + 0
    }
    if (n == 0) return ""
    sort(v, n)
    kmed[side] = quantile(v, n, 0.5)
    return sprintf("%14.6g [%.6g .. %.6g]", kmed[side], quantile(v, n, 0.25), quantile(v, n, 0.75))
}
function values(side, m,    s, line) {
    line = ""
    for (s = 1; s <= seeds; s++) line = line sprintf(" %.6g", val[side, m, seed[s]])
    return line
}
# BENCHMARK.json: {"name": "<name>", ..., "bound": <share>}
FILENAME == "BENCHMARK.json" {
    if (match($0, /"bound": *[0-9.]+/)) {
        b = substr($0, RSTART, RLENGTH); sub(/.*: */, "", b)
        match($0, /"name": *"[^"]*"/); name = substr($0, RSTART, RLENGTH)
        gsub(/"name": *|"/, "", name); bound[name] = b
    }
    next
}
FNR == 1 {
    side = FILENAME; sub(/.*\//, "", side); sub(/\.out$/, "", side)
    sd = side; sub(/.*-/, "", sd); sub(/-.*/, "", side)
    if (!(sd in seen)) { seen[sd] = 1; seed[++seeds] = sd }
    intable = 0
}
# The kind table: a "kind build_s lookup/s ..." header, then one row per
# kind up to the first blank line. The p99 cell may hold a space, so
# B/node is counted from the end.
$1 == "kind" && $2 == "build_s" { intable = 1; next }
NF == 0 { intable = 0 }
intable && $1 !~ /:$/ {
    if (!($1 in kseen)) { kseen[$1] = 1; kind[++kinds] = $1 }
    kv[side, $1, "lookup/s", sd] = $3; kv[side, $1, "ns/hop", sd] = $6; kv[side, $1, "cycles/s", sd] = $7
    kv[side, $1, "audit n/s", sd] = $8; kv[side, $1, "B/node", sd] = $(NF - 2)
    next
}
# "<name> <value> <unit> host|sim higher|lower"
NF == 5 && ($4 == "host" || $4 == "sim") && ($5 == "higher" || $5 == "lower") {
    if ($4 == "sim") {
        sim[side, sd] = sim[side, sd] $1 "=" $2 ";"
        if (!($1 in simseen)) { simseen[$1] = 1; simname[++sims] = $1 }
        simval[side, $1, sd] = $2
        next
    }
    if (!($1 in unit)) { unit[$1] = $3; better[$1] = $5; order[++metrics] = $1 }
    val[side, $1, sd] = $2
    next
}
/fingerprint/ { sim[side, sd] = sim[side, sd] $0 ";"; fp[side, sd] = fp[side, sd] $0 ";" }
END {
    for (k = 1; k <= metrics; k++) {
        m = order[k]; won = 0; lost = 0
        for (s = 1; s <= seeds; s++) {
            p = val["parent", m, seed[s]]; c = val["change", m, seed[s]]
            if (better[m] == "lower") { t = p; p = c; c = t }
            if (c > p) won++; else if (c < p) lost++
        }
        printf "%-24s %-5s %-6s parent %s  change %s  change won %d, lost %d of %d\n", \
            m, unit[m], better[m], summary("parent", m), summary("change", m), won, lost, seeds
        printf "    parent:%s\n    change:%s\n", values("parent", m), values("change", m)
        if (m in bound) {
            clear = better[m] == "lower" ? edge["change"] < edge["parent"] : edge["change"] > edge["parent"]
            printf "    spread: bound %g x parent median = %.4g; %s, %s; change/parent %.3f; clear: %s\n", bound[m], \
                bound[m] * med["parent"], spread("parent", m), spread("change", m), med["change"] / med["parent"], (clear ? "yes" : "no")
        }
    }
    ncols = split("lookup/s,ns/hop,cycles/s,audit n/s,B/node", col, ",")
    split("higher,lower,higher,higher,lower", kbetter, ",")
    for (k = 1; k <= kinds; k++)
        for (c = 1; c <= ncols; c++) {
            p = ksummary("parent", kind[k], col[c]); q = ksummary("change", kind[k], col[c])
            if (p == "" || q == "") continue
            won = 0; lost = 0; n = 0
            for (s = 1; s <= seeds; s++) {
                x = kv["parent", kind[k], col[c], seed[s]]; y = kv["change", kind[k], col[c], seed[s]]
                if (x == "" || x == "-" || y == "" || y == "-") continue
                n++; x += 0; y += 0
                if (kbetter[c] == "lower") { t = x; x = y; y = t }
                if (y > x) won++; else if (y < x) lost++
            }
            printf "kind %-10s %-9s parent %s  change %s  change/parent %.3f  change won %d, lost %d of %d\n", \
                kind[k], col[c], p, q, kmed["parent"] ? kmed["change"] / kmed["parent"] : 0, won, lost, n
        }
    bad = 0
    for (s = 1; s <= seeds; s++) {
        if (sim["parent", seed[s]] == "" || sim["parent", seed[s]] != sim["change", seed[s]]) {
            bad++; printf "seed %s: sim metrics or fingerprint DIFFER\n", seed[s]
            for (k = 1; k <= sims; k++) {
                p = simval["parent", simname[k], seed[s]]; c = simval["change", simname[k], seed[s]]
                if (p != c) printf "seed %s: %s %s -> %s\n", seed[s], simname[k], p, c
            }
            printf "seed %s: fingerprint %s\n", seed[s], \
                (fp["parent", seed[s]] == fp["change", seed[s]] ? "identical" : "DIFFERS")
        }
    }
    printf "sim metrics and fingerprints: %s on %d of %d seeds\n", (bad ? "DIFFER" : "identical"), (bad ? bad : seeds), seeds
    exit (bad > 0)
}' BENCHMARK.json "$out"/parent-[0-9]*.out "$out"/change-[0-9]*.out
