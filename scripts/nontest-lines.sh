#!/bin/sh
# Non-test lines per crate: for every crates/<crate>/src/*.rs, the lines
# before its first `#[cfg(test)]` (the whole file if it has none) — the
# figure CHANGES.md entries quote. CI prints it and fails when core +
# transport exceed 7 000 (ROADMAP item 8's budget).
#   scripts/nontest-lines.sh [-v]     -v also prints every file
cd "$(dirname "$0")/.." || exit 1
for dir in crates/*/src; do
    crate=${dir#crates/}
    crate=${crate%/src}
    total=0
    for f in "$dir"/*.rs; do
        n=$(awk '/#\[cfg\(test\)\]/ { print NR - 1; found = 1; exit } END { if (!found) print NR }' "$f")
        [ "$1" = -v ] && printf '  %6d  %s\n' "$n" "$f"
        total=$((total + n))
    done
    printf '%6d  %s\n' "$total" "$crate"
done
