#!/usr/bin/env bash
# Line counts per crate under crates/*/src: raw lines, and non-test
# lines (a file's lines before its first `#[cfg(test)]`; a file without
# one counts in full). The ROADMAP's size budgets are stated in these
# two numbers.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (default: this script's checkout)
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

printf '%-12s %8s %9s\n' crate raw non-test
total_raw=0
total_code=0
for dir in crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    read -r raw code < <(find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        { raw++; if (!in_test) code++ }
        END { print raw + 0, code + 0 }')
    printf '%-12s %8d %9d\n' "$crate" "$raw" "$code"
    total_raw=$((total_raw + raw))
    total_code=$((total_code + code))
done
printf '%-12s %8d %9d\n' total "$total_raw" "$total_code"
