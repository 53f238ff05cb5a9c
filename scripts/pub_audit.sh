#!/usr/bin/env bash
# Lists each `pub fn` in crates/*/src (outside test-only code: the scan
# stops at a `#[cfg(test)]` or `#[cfg(all(test, ...))]` module and skips
# one item under such an attribute) whose name appears in no `.rs` file
# outside its library: the other crates, the crate's own integration tests
# and binaries (each compiles as a crate of its own), src/, tests/,
# examples/ and bench/src. Such a function has no client; it goes, or it is
# narrowed to `pub(crate)`, or it is kept on purpose.
# Fails on any listed function missing from scripts/pub_audit.allow, whose
# lines read `<file> <fn> <reason>`; the reason is one of: a paper listing,
# a reference implementation tests compare against, a client extension
# point, or the `is_empty` clippy pairs with a public `len`. A name match
# is only a lead: a name that any other file mentions counts as used, so
# the allow file also records the kept functions with no caller that the
# match does not list. It fails on an allow line naming no `pub fn` of its
# file, so the record does not go stale.
#
# Usage: scripts/pub_audit.sh
set -euo pipefail

cd "$(dirname "$0")/.."
allow=scripts/pub_audit.allow

outside_files() {
  local crate=$1
  find crates src tests examples bench/src -name '*.rs' \
    \( -not -path "$crate/src/*" -o -path "$crate/src/bin/*" \) -print0
}

found=$(for crate in crates/*; do
  [ -d "$crate/src" ] || continue
  outside=$(outside_files "$crate" | xargs -0 cat | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
  for f in $(find "$crate/src" -name '*.rs' -not -path '*/src/bin/*' | sort); do
    awk '
      skip {
        if (!started && /^[[:space:]]*(#\[|\/\/)/) next
        if (!started && /^[[:space:]]*(pub(\([a-z]+\))? )?mod /) exit
        started = 1; t = $0; o = gsub(/\{/, "", t); depth += o - gsub(/\}/, "", t)
        if (o > 0) opened = 1
        if (depth <= 0 && (opened || /;[[:space:]]*$/)) skip = 0
        next
      }
      /^[[:space:]]*#\[cfg\((all\()?test[,)]/ {
        if (/\][[:space:]]*(pub(\([a-z]+\))? )?mod /) exit
        skip = 1; started = 0; opened = 0; depth = 0; next
      }
      match($0, /^[[:space:]]*pub (const |unsafe |async )*fn [A-Za-z_][A-Za-z0-9_]*/) {
        s = substr($0, RSTART, RLENGTH); sub(/.*fn /, "", s); print FILENAME, s
      }
    ' "$f"
  done | while read -r f name; do
    grep -qxF "$name" <<< "$outside" || echo "$f $name"
  done
done)

fail=0
while read -r f name; do
  [ -n "$f" ] || continue
  if ! awk -v f="$f" -v n="$name" '$1 == f && $2 == n && NF > 2 { ok = 1 } END { exit !ok }' "$allow"; then
    echo "$f: pub fn $name has no caller outside its crate" >&2
    fail=1
  fi
done <<< "$found"

while read -r f name _; do
  if ! grep -qE "^[[:space:]]*pub (const |unsafe |async )*fn $name\b" "$f" 2>/dev/null; then
    echo "$allow: $f has no pub fn $name" >&2
    fail=1
  fi
done < "$allow"

if [ "$fail" -ne 0 ]; then
  echo "pub audit FAILED: delete the function or make it pub(crate), or add '<file> <fn> <reason>' to $allow" >&2
  exit 1
fi
kept=$(grep -c . <<< "$found" || true)
echo "pub audit OK: $kept pub fns in crates/*/src with no caller outside their library, each kept with a reason in $allow ($(grep -c . "$allow") entries)"
