#!/usr/bin/env bash
# Keeps the code small where it was made small. Counts two numbers:
#   - all Rust under crates/ (`find crates -name '*.rs' | xargs cat | wc -l`);
#   - the non-test Rust under crates/*/src: per file, the lines before its
#     first `#[cfg(test)]` or `#[cfg(all(test, ...))]` (the rule
#     scripts/panic_audit.sh uses).
# Fails when a file in any crates/*/src exceeds 1,000 lines, or when either
# count exceeds its number committed in scripts/size_gate.max (one line
# each, in that order). Growing past them is a reviewed decision; shrinking
# is always fine (then re-run with --write, which records both).
#
# Usage: scripts/size_gate.sh [--write]
set -euo pipefail

cd "$(dirname "$0")/.."
max_file=scripts/size_gate.max
file_limit=1000

total=$(find crates -name '*.rs' -print0 | xargs -0 cat | wc -l)
src=$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
  FNR == 1 { in_tests = 0 }
  in_tests { next }
  /^[[:space:]]*#\[cfg\((all\()?test[,)]/ { in_tests = 1; next }
  { n++ }
  END { print n + 0 }
' | awk '{ s += $1 } END { print s + 0 }')

if [ "${1:-}" = "--write" ]; then
  printf '%s crates/\n%s crates/*/src outside tests\n' "$total" "$src" > "$max_file"
  echo "size gate: wrote $max_file ($total lines under crates/, $src non-test under crates/*/src)"
  exit 0
fi

fail=0
while read -r n f; do
  if [ "$n" -gt "$file_limit" ]; then
    echo "$f: $n lines, $file_limit allowed" >&2
    fail=1
  fi
done < <(find crates/*/src -name '*.rs' -print0 | xargs -0 wc -l | grep -v ' total$')

{ read -r allowed _; read -r allowed_src _; } < "$max_file"
if [ "$total" -gt "$allowed" ]; then
  echo "crates/: $total lines of Rust, $allowed allowed ($max_file)" >&2
  fail=1
fi
if [ "$src" -gt "$allowed_src" ]; then
  echo "crates/*/src: $src non-test lines of Rust, $allowed_src allowed ($max_file)" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "size gate FAILED: split the file or delete what the change made unnecessary, or justify the growth and run scripts/size_gate.sh --write" >&2
  exit 1
fi
echo "size gate OK: $total lines of Rust under crates/ (max $allowed), $src of them non-test under crates/*/src (max $allowed_src), no file in crates/*/src over $file_limit"
