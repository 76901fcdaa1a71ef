#!/usr/bin/env bash
# Builds the qid server and the layer-ledger harness from source, then
# runs one workload. Usage, from the repository root:
#
#   bash layerbench/run.sh --workload check_hot --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the
# repository root); cargo's own output goes to stderr, so the last line
# of stdout is the harness's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin qid >&2
cargo build --release --offline --quiet --manifest-path "$root/layerbench/Cargo.toml" >&2

exec "$target/release/layerbench" --qid "$target/release/qid" --work "$root/.bench_work" "$@"
