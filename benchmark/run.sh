#!/usr/bin/env bash
# Build the benchmark and run it. The driver calls
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# from the root of a checkout; with no --trace it runs the whole suite
# (see README.md). Everything it writes stays under this directory and the
# cargo target directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"

# Build from the repository root so cargo finds the root .cargo/config.toml
# (-C target-cpu=native): the lane kernels need the host's vector width.
# Honour the caller's CARGO_TARGET_DIR (the driver sets one); otherwise share
# the root target directory so library crates are not compiled twice.
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

case "$CARGO_TARGET_DIR" in
  /*) bin="$CARGO_TARGET_DIR/release/pic-benchmark" ;;
  *) bin="$root/$CARGO_TARGET_DIR/release/pic-benchmark" ;;
esac

# A checkout the driver makes is not a git repository: the commit is then
# unknown, and the envelope says so.
PIC_BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export PIC_BENCH_COMMIT

exec "$bin" --out-dir "$here/out" "$@"
