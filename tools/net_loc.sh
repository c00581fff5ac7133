#!/usr/bin/env sh
# Net lines of code changed since a base commit, per top-level code
# directory: added, removed and net lines from `git diff --numstat`.
#
# Usage: tools/net_loc.sh [BASE]
#   BASE  the commit to diff the working tree against (default HEAD).
#         Stage new files (`git add -A`) first, or they are not counted.
#
# Only code files count (C/C++ sources and headers, CMake, Python and
# shell scripts); data files such as smtflex_cache.txt, JSON and Markdown
# are left out. A rename counts as a deletion plus an addition.
set -eu

base=${1:-HEAD}
repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

git -C "$repo_root" diff --numstat --no-renames "$base" -- \
    src tests bench tools perfbench |
awk '
    BEGIN {
        n = split("src tests bench tools perfbench", dirs, " ")
        for (i = 1; i <= n; ++i)
            added[dirs[i]] = removed[dirs[i]] = 0
    }
    # Binary files report "-" for both counts.
    $1 == "-" { next }
    {
        path = $3
        if (path !~ /\.(c|cc|cpp|h|hpp|py|sh|cmake)$/ &&
            path !~ /(^|\/)CMakeLists\.txt$/)
            next
        dir = path
        sub(/\/.*/, "", dir)
        added[dir] += $1
        removed[dir] += $2
    }
    END {
        printf "%-10s %8s %8s %8s\n", "dir", "added", "removed", "net"
        for (i = 1; i <= n; ++i) {
            d = dirs[i]
            printf "%-10s %8d %8d %+8d\n", d, added[d], removed[d],
                added[d] - removed[d]
            total_added += added[d]
            total_removed += removed[d]
        }
        printf "%-10s %8d %8d %+8d\n", "total", total_added, total_removed,
            total_added - total_removed
    }
'
