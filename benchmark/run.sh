#!/usr/bin/env bash
# Build the benchmark in release, then hand it the arguments:
#   run.sh --workload W --seed N --seconds S --trace 0|1    one run (what BENCHMARK.json names)
#   run.sh [suite] [--seed N] [--runs K] [--traced] [W...]  every workload, records in benchmark/out
#   run.sh compare DIR_A DIR_B                              two record sets side by side
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
[ $# -gt 0 ] || set -- suite
exec "${CARGO_TARGET_DIR:-$here/target}/release/benchmark" "$@"
