#!/usr/bin/env bash
# Differential check: hf_core::placement::place against the two routines it
# replaced (device_placement_ext, failover_placement_ext), which are cut out
# of the last commit that had them and compiled beside the current crate.
# Usage: scripts/placement_diff.sh [graphs-per-weight-mode]   (default 10000;
# every graph is compared 4 times: fresh and failover under both policies)
set -euo pipefail
cd "$(dirname "$0")/placement_diff"
OLD=72d94c46de577dc62041ed35fdb19772ae45000b
{
  cat <<'HDR'
// Generated by scripts/placement_diff.sh from git history; not committed.
#![allow(dead_code, clippy::all)]
use hf_core::placement::{Placement, PlacementView};
use hf_core::{HfError, TaskCosts, TaskKind};
use hf_gpu::CostModel;
use hf_sync::UnionFind;
HDR
  # PlacementPolicy, refined_weight, device_placement_ext, failover_placement_ext
  git show "$OLD:crates/hf-core/src/placement.rs" | sed -n '152,175p;234,245p;276,446p;465,598p'
} > src/old.rs
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" cargo run --release --quiet -- "${1:-10000}"
