#!/usr/bin/env bash
# Keeps the code small where it was made small: fails when a file in any
# crates/*/src exceeds 1,000 lines, or when the Rust under crates/
# (`find crates -name '*.rs' | xargs cat | wc -l`) exceeds the number
# committed in scripts/size_gate.max. Growing past it is a reviewed
# decision; shrinking is always fine (then re-run with --write).
#
# Usage: scripts/size_gate.sh [--write]
set -euo pipefail

cd "$(dirname "$0")/.."
max_file=scripts/size_gate.max
file_limit=1000

total=$(find crates -name '*.rs' -print0 | xargs -0 cat | wc -l)

if [ "${1:-}" = "--write" ]; then
  echo "$total" > "$max_file"
  echo "size gate: wrote $max_file ($total lines)"
  exit 0
fi

fail=0
while read -r n f; do
  if [ "$n" -gt "$file_limit" ]; then
    echo "$f: $n lines, $file_limit allowed" >&2
    fail=1
  fi
done < <(find crates/*/src -name '*.rs' -print0 | xargs -0 wc -l | grep -v ' total$')

allowed=$(cat "$max_file")
if [ "$total" -gt "$allowed" ]; then
  echo "crates/: $total lines of Rust, $allowed allowed ($max_file)" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "size gate FAILED: split the file or delete what the change made unnecessary, or justify the growth and run scripts/size_gate.sh --write" >&2
  exit 1
fi
echo "size gate OK: $total lines of Rust under crates/ (max $allowed), no file in crates/*/src over $file_limit"
