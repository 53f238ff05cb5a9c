#!/usr/bin/env bash
# Builds every example in examples/ in release and runs each one; any
# non-zero exit fails the sweep. The three examples that validate their
# own output (multi_tenant, profiling, health_endpoint) get an artifacts
# directory and --check; the rest run without arguments. Before building,
# README.md's "### Examples" block must name exactly the files in examples/.
#
# Usage: scripts/examples_sweep.sh [artifacts-dir]   (default: artifacts)
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-artifacts}"
mkdir -p "$out"

listed=$(sed -n '/^### Examples$/,/^### /p' README.md | grep -oE -- '--example [a-z0-9_]+' | cut -d' ' -f2 | sort -u)
present=$(basename -s .rs examples/*.rs | sort)
if [ "$listed" != "$present" ]; then
  echo "README.md \"### Examples\" and examples/ disagree (< listed only, > on disk only):" >&2
  diff <(echo "$listed") <(echo "$present") >&2 || true
  exit 1
fi

cargo build --release --examples

for src in examples/*.rs; do
  name="$(basename "$src" .rs)"
  case "$name" in
    multi_tenant|profiling|health_endpoint) args=("$out/$name" --check) ;;
    *) args=() ;;
  esac
  echo "== example $name ${args[*]}"
  cargo run --release --quiet --example "$name" -- ${args[@]+"${args[@]}"} >"$out/$name.log" 2>&1 || {
    tail -n 40 "$out/$name.log"
    echo "example $name failed (full output: $out/$name.log)"
    exit 1
  }
done
echo "examples sweep OK: $(ls examples/*.rs | wc -l) examples"
