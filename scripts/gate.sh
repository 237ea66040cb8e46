#!/bin/sh
# The repository's whole gate, in order: formatting, clippy with
# warnings denied, tier-1 (release build, then the test suite) and the
# benchmark's contract tests. Stops at the first failing step and exits
# with that step's status; when every step passes, prints the non-test
# line count (scripts/nontest-lines.sh). Takes no options; run from
# anywhere.
cd "$(dirname "$0")/.." || exit 1
step() {
    echo "== $*"
    "$@" || {
        status=$?
        echo "gate: '$*' failed with status $status" >&2
        exit "$status"
    }
}
step cargo fmt --all --check
step cargo clippy --workspace --all-targets -- -D warnings
step cargo build --release
step cargo test -q
step cargo test --manifest-path benchmark/Cargo.toml
echo "gate: every step passed"
scripts/nontest-lines.sh
