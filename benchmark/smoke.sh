#!/usr/bin/env bash
# Smoke run: all five workloads at 1/20 size for one second each, timed and
# then traced, with the answer checker on. Exits non-zero if any op fails
# or any answer is wrong. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --quiet --offline
bin="${CARGO_TARGET_DIR:-target}/release/sparkline-benchmark"
"$bin" --smoke --trace 0
"$bin" --smoke --trace 1
