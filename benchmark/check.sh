#!/usr/bin/env bash
# Gate for this package only: format, lints, unit tests, and a smoke pass of
# the whole suite (every workload at 1/20 size, untraced and traced).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
manifest="$here/Cargo.toml"

cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --offline --release --all-targets --manifest-path "$manifest" -- -D warnings
cargo test --offline --release --quiet --manifest-path "$manifest"
"$here/run.sh" --smoke >/dev/null
echo "benchmark/check.sh: ok"
