#!/bin/sh
# Byte identity of everything static pricing and Table I print, against
# another tree: the check an edit to the cost model, the RDA census, the
# program models, the placement evaluation or the FFBP walk must pass.
#
#   scripts/static-identity.sh <parent-tree>
#
# <parent-tree> is a checkout to compare with (for a change, a `git
# clone` of its parent commit). Builds `sarlint`, `run` and `autotune`
# in both trees, then writes per tree, in this order:
#   sarlint --all --cost --json, at small and at paper scale;
#   run --small --no-write --json --analyze --cost over every pair, with
#     the registered placements and again with --placement scattered
#     (the wall-clock host record left out: its cycles are measured);
#   autotune --out, and what it prints;
#   run --small --no-write --heatmap --power --trace, once on the
#     epiphany and once on the e64 platform: the prose (per-link
#     heatmaps, power timelines) and every numbered trace file;
#   run --small --no-write --json --faults specs/faults_demo.json (the
#     change tree's spec on both sides; host record left out), the
#     mesh-stall attribution path;
#   table1 --json --no-write at paper scale: the six records and the
#     table (all simulated, no wall-clock field), the byte check of the
#     paper-scale FFBP walk.
# Each command's stderr and exit status are kept beside its output.
# Prints "identical" and exits 0 when every file matches; otherwise
# names the first file that differs (or is missing on one side), shows
# the head of its diff and exits 1. Run from anywhere; the files go to
# a temporary directory.
set -eu

[ $# -eq 1 ] || { sed -n '6p' "$0" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The `run` document without the record whose platform is `host`.
drop_host() {
    awk '
        /^    \{/ { held = $0; holding = 1; host = 0; next }
        holding { held = held "\n" $0; if (/"platform": "host"/) host = 1 }
        holding && /^    \},?$/ { if (!host) print held; holding = 0; next }
        !holding { print }
    '
}

# One command's output, stderr and exit status: capture NAME CMD...
capture() {
    name=$1
    shift
    status=0
    "$@" > "$out/$name.out" 2> "$out/$name.err" || status=$?
    echo "$status" > "$out/$name.status"
}

for side in parent change; do
    if [ "$side" = parent ]; then tree=$parent; else tree=$change; fi
    cargo build --release --quiet --offline --manifest-path "$tree/Cargo.toml" \
        -p sarlint -p bench -p autotune
    bin=$tree/target/release
    out=$work/$side
    mkdir -p "$out"
    capture sarlint_small "$bin/sarlint" --all --cost --json --small
    capture sarlint_paper "$bin/sarlint" --all --cost --json
    for placement in registered scattered; do
        set -- --small --no-write --json --analyze --cost
        [ "$placement" = registered ] || set -- "$@" --placement scattered
        capture "run_$placement" "$bin/run" "$@"
        drop_host < "$out/run_$placement.out" > "$work/doc"
        mv "$work/doc" "$out/run_$placement.out"
    done
    (cd "$out" && capture autotune "$bin/autotune" --out autotune.json)
    for platform in epiphany e64; do
        (cd "$out" && capture "trace_$platform" "$bin/run" --small --no-write \
            --heatmap --power --platform "$platform" --trace "trace_$platform/trace.json")
    done
    capture faults "$bin/run" --small --no-write --json --faults "$change/specs/faults_demo.json"
    drop_host < "$out/faults.out" > "$work/doc"
    mv "$work/doc" "$out/faults.out"
    capture table1_paper "$bin/table1" --json --no-write
done

cd "$work/parent"
find . -type f | sort > "$work/parent.files"
(cd "$work/change" && find . -type f | sort) > "$work/change.files"
if ! cmp -s "$work/parent.files" "$work/change.files"; then
    echo "static-identity: the trees wrote different files (parent <, change >)"
    diff "$work/parent.files" "$work/change.files" | head -n 20
    exit 1
fi
while read -r file; do
    cmp -s "$file" "$work/change/$file" && continue
    echo "static-identity: $file differs (parent <, change >)"
    diff "$file" "$work/change/$file" | head -n 20
    exit 1
done < "$work/parent.files"
echo "static-identity: identical ($(wc -l < "$work/parent.files") files)"
