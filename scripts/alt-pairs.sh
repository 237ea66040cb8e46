#!/bin/sh
# Alternated parent/change benchmark pairs — the protocol the host-speed
# trajectory in EXPERIMENTS.md (T1…) is measured with.
#
#   scripts/alt-pairs.sh <parent-tree> <change-tree> <workload>... [-n 10] [-d DIR]
#
# Each tree is a checkout holding BENCHMARK.json (for the parent, a
# `git clone` of the parent commit). Builds `sarbench` in both, then for
# every workload runs N pairs of
#   sarbench --workload W --seed 1 --seconds 10 --trace 0
# each run from its own tree, the side that goes first alternating from
# pair to pair. With `-d DIR` both binaries are called by absolute path
# from DIR instead (a directory without BENCHMARK.json: each binary
# then takes its own tree as the repo root), which moves where glibc
# puts large buffers: read `peak_rss_mb` from at least two working
# directories before believing it. Prints every run in order, then per
# end-to-end metric (all three are lower-is-better) each side's median
# [q1, q3], the change of the medians, how many pairs the change won
# (ties count for neither) and the parent's q3 - q1. Quartiles are the exclusive method
# of Python's `statistics.quantiles`, as in `benchmark/src/stats.rs`.
# Run nothing else meanwhile: the container has two cores at best.
set -eu

usage() {
    sed -n '2,6p' "$0" >&2
    exit 2
}

pairs=10
dir=
trees=
workloads=
while [ $# -gt 0 ]; do
    case "$1" in
    -n)
        [ $# -ge 2 ] || usage
        pairs=$2
        shift
        ;;
    -d)
        [ $# -ge 2 ] || usage
        dir=$(cd "$2" && pwd)
        shift
        ;;
    -*) usage ;;
    *)
        if [ "$(echo $trees | wc -w)" -lt 2 ]; then
            trees="$trees $(cd "$1" && pwd)"
        else
            workloads="$workloads $1"
        fi
        ;;
    esac
    shift
done
[ -n "$workloads" ] || usage
set -- $trees
parent=$1
change=$2

for tree in "$parent" "$change"; do
    [ -f "$tree/BENCHMARK.json" ] || { echo "$tree: no BENCHMARK.json" >&2; exit 2; }
    cargo build --release --quiet --offline --manifest-path "$tree/benchmark/Cargo.toml"
done

# One run: "<side> <wall_s> <setup_s> <peak_rss_mb> <failed>/<attempted>".
run() {
    side=$1
    tree=$2
    last=$(cd "${dir:-$tree}" && "$tree/benchmark/target/release/sarbench" \
        --workload "$3" --seed 1 --seconds 10 --trace 0 | tail -n 1)
    echo "$last" | awk -v side="$side" '{
        n = split("wall_s setup_s peak_rss_mb", want, " ")
        line = side
        for (i = 1; i <= n; i++) {
            rest = substr($0, index($0, "\"" want[i] "\""))
            sub(/^[^{]*\{"value": */, "", rest)
            sub(/,.*/, "", rest)
            line = line sprintf(" %.6g", rest)
        }
        attempted = $0; sub(/.*"attempted": */, "", attempted); sub(/,.*/, "", attempted)
        failed = $0; sub(/.*"failed": */, "", failed); sub(/,.*/, "", failed)
        print line, failed "/" attempted
    }'
}

for w in $workloads; do
    echo "== $w: $pairs alternated pairs from ${dir:-each tree} (side wall_s setup_s peak_rss_mb failed/attempted)"
    log=
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            if [ "$side" = parent ]; then tree=$parent; else tree=$change; fi
            line=$(run "$side" "$tree" "$w")
            echo "$line"
            log="$log$line
"
        done
        i=$((i + 1))
    done
    printf '%s' "$log" | awk -v w="$w" '
        function sorted(a, n, out,    i, j, t) {
            for (i = 1; i <= n; i++) out[i] = a[i]
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && out[j - 1] > out[j]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
        }
        function cut(v, m, i,    j, delta) {
            if (m == 1) return v[1]
            j = int(i * (m + 1) / 4); if (j < 1) j = 1; if (j > m - 1) j = m - 1
            delta = i * (m + 1) - j * 4
            return (v[j] * (4 - delta) + v[j + 1] * delta) / 4
        }
        function median(v, m) { return m % 2 ? v[(m + 1) / 2] : (v[m / 2] + v[m / 2 + 1]) / 2 }
        { n[$1]++; for (k = 1; k <= 3; k++) x[$1, k, n[$1]] = $(k + 1); split($5, f, "/"); bad[$1] += f[1]; all[$1] += f[2] }
        END {
            split("wall_s setup_s peak_rss_mb", name, " ")
            m = n["parent"]
            for (k = 1; k <= 3; k++) {
                wins = 0
                for (i = 1; i <= m; i++) {
                    p[i] = x["parent", k, i]; c[i] = x["change", k, i]
                    if (c[i] < p[i]) wins++
                }
                sorted(p, m, ps); sorted(c, m, cs)
                pm = median(ps, m); cm = median(cs, m)
                printf "%s %-11s parent %.5g [%.5g, %.5g]  change %.5g [%.5g, %.5g]  %+.1f %%  change lower in %d/%d  parent IQR %.3g\n",
                    w, name[k], pm, cut(ps, m, 1), cut(ps, m, 3), cm, cut(cs, m, 1), cut(cs, m, 3),
                    (cm / pm - 1) * 100, wins, m, cut(ps, m, 3) - cut(ps, m, 1)
            }
            printf "%s failed/attempted: parent %d/%d, change %d/%d\n", w, bad["parent"], all["parent"], bad["change"], all["change"]
        }'
done
