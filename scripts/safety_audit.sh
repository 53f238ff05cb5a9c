#!/usr/bin/env bash
# Audits the unsafe code in the lock-free substrate (hf-sync), the GPU
# substrate (hf-gpu) and the executor (hf-core, whose slot registry every
# token resolves through): every `unsafe` block, `unsafe impl`, and `unsafe
# trait` must carry a `// SAFETY:` comment — and every `unsafe fn` a
# `/// # Safety` doc section — within the preceding few lines. Exits
# non-zero listing each uncommented site.
#
# Usage: scripts/safety_audit.sh [extra crate dirs...]
set -euo pipefail

cd "$(dirname "$0")/.."

dirs=(crates/hf-sync/src crates/hf-gpu/src crates/hf-core/src "$@")

fail=0
for f in $(find "${dirs[@]}" -name '*.rs' | sort); do
  if ! awk '
    FNR == 1 { last_safety = -100 }
    /SAFETY:|# Safety/ { last_safety = FNR }
    {
      line = $0
      sub(/^[[:space:]]+/, "", line)
      # Skip comment lines (the keyword in prose is not a site).
      if (line ~ /^\/\//) next
      # An unsafe site: the keyword opening a block, fn, impl, or trait.
      if (line !~ /(^|[^[:alnum:]_"])unsafe([[:space:]]|\{)/) next
      if (FNR - last_safety > 12) {
        printf "%s:%d: unsafe without a SAFETY comment\n    %s\n", FILENAME, FNR, $0
        bad = 1
      }
    }
    END { exit bad }
  ' "$f"; then
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "safety audit FAILED: add // SAFETY: comments to the sites above" >&2
  exit 1
fi
echo "safety audit OK: all unsafe sites in ${dirs[*]} are documented"
