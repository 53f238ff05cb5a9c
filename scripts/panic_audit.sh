#!/usr/bin/env bash
# Counts the `unwrap()` / `expect(` sites on runtime paths: per file of
# crates/hf-core/src, occurrences outside comments and before the file's
# `#[cfg(test)]` module (raw greps mostly count test code and say nothing).
# Fails when a file exceeds the count committed in scripts/panic_audit.allow,
# so a new site on a runtime path is a reviewed decision; lowering a count
# is always fine (then re-run with --write).
#
# Usage: scripts/panic_audit.sh [--write]
set -euo pipefail

cd "$(dirname "$0")/.."
allow=scripts/panic_audit.allow

counts=$(for f in $(find crates/hf-core/src -name '*.rs' | sort); do
  awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    { n += gsub(/\.unwrap\(\)|\.expect\(/, "") }
    END { if (n) printf "%s %d\n", FILENAME, n }
  ' "$f"
done)

if [ "${1:-}" = "--write" ]; then
  printf '%s\n' "$counts" > "$allow"
  echo "panic audit: wrote $allow"
  exit 0
fi

fail=0
while read -r f n; do
  allowed=$(awk -v f="$f" '$1 == f { print $2 }' "$allow")
  if [ "$n" -gt "${allowed:-0}" ]; then
    echo "$f: $n unwrap()/expect( outside tests, ${allowed:-0} allowed" >&2
    fail=1
  fi
done <<< "$counts"

if [ "$fail" -ne 0 ]; then
  echo "panic audit FAILED: return an error instead, or justify the site and run scripts/panic_audit.sh --write" >&2
  exit 1
fi
total=$(awk '{ s += $2 } END { print s + 0 }' <<< "$counts")
echo "panic audit OK: $total unwrap()/expect( sites outside tests in crates/hf-core/src, none above $allow"
