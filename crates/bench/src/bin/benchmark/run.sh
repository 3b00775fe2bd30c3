#!/usr/bin/env bash
# Builds the `thrifty-barrier` CLI and the benchmark from source, then runs
# one benchmark workload. Run from the repository root:
#
#   bash crates/bench/src/bin/benchmark/run.sh --workload sweep-n64 --seed 31553 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
# Artifacts land in $CARGO_TARGET_DIR (default: target).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
if [[ ! -f "$root/Cargo.toml" ]]; then
    echo "benchmark: no repository at $root (expected its Cargo.toml)" >&2
    exit 2
fi
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin thrifty-barrier >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/benchmark" --cli "$CARGO_TARGET_DIR/release/thrifty-barrier" "$@"
