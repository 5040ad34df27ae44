#!/bin/sh
# check-docs.sh — docs-staleness guard, run in CI.
#
# The README's Layout section claims to describe the directory tree;
# this script makes that claim checkable in both directions. It fails
# if any package directory under internal/ or any command under cmd/
# is absent from the Layout section, so adding a package without
# documenting it breaks the build instead of silently rotting the
# docs. It also fails if README.md or docs/ARCHITECTURE.md cites an
# internal/, cmd/ or examples/ path that does not exist, so deleting
# or renaming one and leaving the stale prose breaks the build too.
#
# Usage: scripts/check-docs.sh [repo-root]
set -eu

root="${1:-.}"
readme="$root/README.md"

if [ ! -f "$readme" ]; then
    echo "check-docs: $readme not found" >&2
    exit 1
fi

# Extract the Layout section (from the '## Layout' heading to the next
# '## ' heading or EOF).
layout=$(awk '/^## Layout$/{in_sec=1; next} /^## /{in_sec=0} in_sec' "$readme")
if [ -z "$layout" ]; then
    echo "check-docs: README has no '## Layout' section" >&2
    exit 1
fi

status=0
missing=0
for dir in "$root"/internal/*/ "$root"/cmd/*/; do
    [ -d "$dir" ] || continue
    # Only directories that actually hold Go code are packages.
    if ! ls "$dir"*.go >/dev/null 2>&1; then
        continue
    fi
    rel=${dir#"$root"/}
    rel=${rel%/}
    if ! printf '%s\n' "$layout" | grep -qF "\`$rel\`"; then
        echo "check-docs: $rel is missing from README's Layout section" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "check-docs: add the missing packages to the Layout table in README.md" >&2
    status=1
fi

# A cited path is its directory and file segments; a Go identifier
# after a package path (`internal/cache.LRU`) is not part of it.
for doc in "$readme" "$root/docs/ARCHITECTURE.md"; do
    [ -f "$doc" ] || continue
    for ref in $(grep -oE '(internal|cmd|examples)/[A-Za-z0-9_/-]+(\.go)?' "$doc" | sort -u); do
        if [ ! -e "$root/$ref" ]; then
            echo "check-docs: ${doc#"$root"/} cites $ref, which does not exist" >&2
            status=1
        fi
    done
done
exit "$status"
