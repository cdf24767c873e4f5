#!/usr/bin/env bash
# Builds the benchmark program from source (release, offline) and runs it.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run, JSON on the last line
#   benchmark/run.sh [--seed N] [--out FILE] [--runs R] [--quick]      every workload, then the traced passes
#   benchmark/run.sh compare A.json B.json                             verdict per (workload, metric)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
BENCH_DIR="$here" exec "$target/release/bench" "$@"
