#!/usr/bin/env bash
# Builds the arrangement server and the benchmark from source, then runs
# the benchmark with the given arguments, e.g.
#
#   bash igepa-benchmark/run.sh --workload user_churn --seed 1 --seconds 10 --trace 0
#   bash igepa-benchmark/run.sh --seed 1                  # all four workloads
#
# Build output goes to $CARGO_TARGET_DIR (default: target/ at the
# repository root). Build logs go to stderr; the benchmark's result is the
# last line of stdout.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline --quiet --manifest-path Cargo.toml \
  -p igepa-experiments --bin igepa-experiments >&2
cargo build --release --offline --quiet --manifest-path igepa-benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/igepa-benchmark" \
  --server "$CARGO_TARGET_DIR/release/igepa-experiments" "$@"
