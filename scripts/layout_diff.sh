#!/usr/bin/env bash
# Code-layout report for two builds of the benchmark: for a fixed list of
# each gated workload's hot functions, prints the function's start address
# mod 64 (its offset within a cache line), its size in bytes, and how far
# it moved from A to B, read with `nm -n -S --demangle`. Run it before
# putting a workload's move down to code that workload never runs: a
# function whose size and offset are unchanged did not change, whatever
# its address. A "-" means the function is not a symbol of that build
# (it was inlined into its caller); several entries mean several copies.
#
# Usage: scripts/layout_diff.sh A B
#   A, B: bench_ladder binaries, or checkouts in which `bash bench/run.sh`
#   has built bench/target/release/bench_ladder.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 A B (bench_ladder binaries or checkouts)" >&2
  exit 2
fi

resolve() {
  if [ -d "$1" ]; then echo "$1/bench/target/release/bench_ladder"; else echo "$1"; fi
}
a=$(resolve "$1")
b=$(resolve "$2")
for bin in "$a" "$b"; do
  [ -f "$bin" ] || { echo "$0: no binary at $bin" >&2; exit 2; }
done

# workload|function, the functions each gated workload spends its time in.
hot=(
  "sched_host|hf_core::worker::Worker::run"
  "sched_host|hf_core::ready::<impl hf_core::executor::ExecInner>::finish_node"
  "sched_host|hf_core::ready::ReadyBatch::push"
  "sched_host|hf_core::ready::ReadyBatch::flush"
  "xfer_recopy|hf_gpu::copy::copy_bytes"
  "xfer_recopy|hf_core::dispatch::Pull::copy_whole"
  "xfer_recopy|hf_gpu::device::engine_loop"
  "stream_serving|hf_core::dispatch::submit"
  "stream_serving|hf_core::stream::EpochDriver::pump"
  "app_timing|hf_timing::paths::k_critical_paths"
  "app_timing|hf_timing::sta::run_sta"
  "app_timing|hf_timing::correlation::build_correlation_graph"
  "app_place|hf_place::matching::Matcher::match_window"
  "app_place|hf_place::matching::Hungarian::solve"
  "app_place|hf_place::partition::partition_windows"
)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
nm -n -S --demangle "$a" > "$tmp/a"
nm -n -S --demangle "$b" > "$tmp/b"

# Prints "address size" (hex) of every text symbol named exactly $2 in $1.
lookup() {
  awk -v want="$2" '
    $3 ~ /^[tTwW]$/ {
      name = $0
      sub(/^[0-9a-f]+ [0-9a-f]+ [tTwW] /, "", name)
      if (name == want) print $1, $2
    }' "$1"
}

# "offset/size" for each copy, "-" when there is none.
describe() {
  local out=""
  while read -r addr size; do
    out+="$((16#$addr % 64))/$((16#$size)) "
  done < <(lookup "$1" "$2")
  echo "${out:--}"
}

printf '%-15s %-70s %-14s %-14s %s\n' workload function "A off/size" "B off/size" "moved B-A"
for entry in "${hot[@]}"; do
  workload=${entry%%|*}
  fn=${entry#*|}
  first_a=$(lookup "$tmp/a" "$fn" | head -1 | cut -d' ' -f1)
  first_b=$(lookup "$tmp/b" "$fn" | head -1 | cut -d' ' -f1)
  moved="-"
  if [ -n "$first_a" ] && [ -n "$first_b" ]; then
    moved=$((16#$first_b - 16#$first_a))
  fi
  printf '%-15s %-70s %-14s %-14s %s\n' "$workload" "$fn" \
    "$(describe "$tmp/a" "$fn")" "$(describe "$tmp/b" "$fn")" "$moved"
done
