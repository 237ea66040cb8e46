#!/bin/sh
# Non-test source lines, by the rule ROADMAP.md, CHANGES.md and the
# simplicity issues quote: for every .rs file under crates/*/src and
# src, the lines before the file's first `#[cfg(test)]` (a file that is
# itself a test module, `*/tests.rs`, counts as none). Prints one line
# per crate and the total. Run from anywhere; `cargo fmt` first.
cd "$(dirname "$0")/.." || exit 1
find crates/*/src src -name '*.rs' ! -name tests.rs | sort | xargs awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting {
        crate = FILENAME
        if (crate ~ /^crates\//) { sub(/^crates\//, "", crate); sub(/\/.*/, "", crate); crate = "crates/" crate }
        else crate = "src"
        lines[crate]++
        total++
    }
    END {
        for (c in lines) printf "%7d %s\n", lines[c], c | "sort -k2"
        close("sort -k2")
        printf "%7d total\n", total
    }'
