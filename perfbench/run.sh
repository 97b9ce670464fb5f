#!/usr/bin/env bash
# Builds the `mot3d` binary and the benchmark binary from source, then
# runs the benchmark with every argument passed through, e.g.
#
#   bash perfbench/run.sh --workload fig6_interconnects --seed 1 --seconds 20 --trace 0
#
# Build output lands in $CARGO_TARGET_DIR (default: .bench_build at the
# repository root); the benchmark's working files go to a subdirectory of it.
set -euo pipefail
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
target=${CARGO_TARGET_DIR:-$root/.bench_build}
case $target in
/*) ;;
*) target=$PWD/$target ;;
esac
export CARGO_TARGET_DIR=$target
cargo build --quiet --release --offline --manifest-path "$root/Cargo.toml" -p mot3d-serve --bin mot3d >&2
cargo build --quiet --release --offline --manifest-path "$bench_dir/Cargo.toml" >&2
exec "$target/release/mot3d-perfbench" \
    --mot3d "$target/release/mot3d" \
    --baseline "$root/BENCH_results.json" \
    --out "$target/mot3d-perfbench" \
    "$@"
