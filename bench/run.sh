#!/usr/bin/env bash
# The one command of the benchmark of record. Builds bench_ladder from
# source (a package of its own, this directory) and passes every argument
# on; see src/main.rs for the modes. Run from anywhere: paths are taken
# from the root of the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
exec cargo run --release --quiet --offline --manifest-path bench/Cargo.toml -- "$@"
