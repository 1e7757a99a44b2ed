#!/usr/bin/env bash
# Non-test Rust lines per crate, the way CHANGES.md reports size: every
# `.rs` file outside `tests/` and `txbench/`, minus top-level
# `#[cfg(test)] mod … { … }` blocks, blank and comment lines included.
# `crates/<name>` counts as <name>; `examples`, `src` and `vendor` count
# as themselves. txbench is counted the same way and printed apart from
# the total. A measuring tool, not a gate.
#
# Usage: scripts/loc.sh [DIR]   (DIR defaults to the repository root)
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

# Lines of one file outside its top-level test modules.
count() {
    awk '
        skip == 0 && /^#\[cfg\(test\)\]/ { pending = 1; next_line = NR + 1; held = $0; next }
        pending && NR == next_line {
            pending = 0
            if ($0 ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+ *\{/) { skip = 1; next }
            n++
        }
        skip { if ($0 ~ /^\}/) skip = 0; next }
        { n++ }
        END { print n + 0 }
    ' "$1"
}

# Sum over the files `find` lists under the given paths.
sum() {
    local total=0 f
    while IFS= read -r f; do
        total=$((total + $(count "$f")))
    done < <(find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' | sort)
    echo "$total"
}

grand=0
for dir in crates/* examples src vendor; do
    [ -d "$dir" ] || continue
    n=$(sum "$dir")
    printf '%-10s %6d\n' "$(basename "$dir")" "$n"
    grand=$((grand + n))
done
printf '%-10s %6d\n' total "$grand"
[ -d txbench ] && printf '%-10s %6d\n' txbench "$(sum txbench)"
exit 0
