#!/usr/bin/env bash
# Build the daemon under test and the benchmark from this checkout, then
# run one benchmark invocation:
#
#   bash swsbench/run.sh --workload uni_history --seed 1 --seconds 25 --trace 0
#
# Both binaries build through this package's manifest into one target
# directory ($CARGO_TARGET_DIR, default swsbench/target), so the
# repository's crates compile once. `swsd` gets the same release profile
# as in the repository's own workspace. Build output goes to stderr; the
# last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-swsbench/target}"
cargo build --release --quiet --offline --manifest-path swsbench/Cargo.toml \
    -p sws-designer -p swsbench --bin swsd --bin swsbench >&2
exec "$CARGO_TARGET_DIR/release/swsbench" run --swsd "$CARGO_TARGET_DIR/release/swsd" "$@"
