#!/usr/bin/env bash
# Line counts of the workspace crates, per crate and in total:
#   src       every line of the crate's src/**/*.rs;
#   non-test  each of those files' lines above its first column-0
#             `#[cfg(test)]` (the whole file when it has none);
# then the line total of crates/**/*.rs (integration tests included).
# Counts the checkout this script sits in. Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { split(FILENAME, path, "/"); crate = path[2]; in_test = 0 }
    /^#\[cfg\(test\)\]/ { in_test = 1 }
    { src[crate]++; if (!in_test) lib[crate]++ }
    END { for (c in src) print c, src[c], lib[c] + 0 }' |
    sort | awk '
    BEGIN { printf "%-8s %8s %9s\n", "crate", "src", "non-test" }
    { src[$1] += $2; lib[$1] += $3; if (!seen[$1]++) order[++n] = $1 }
    END {
        for (i = 1; i <= n; i++) {
            c = order[i]; printf "%-8s %8d %9d\n", c, src[c], lib[c]
            all_src += src[c]; all_lib += lib[c]
        }
        printf "%-8s %8d %9d\n", "all", all_src, all_lib
    }'
find crates -name '*.rs' -print0 | xargs -0 cat | wc -l |
    awk '{ printf "crates/**/*.rs: %d\n", $1 }'
