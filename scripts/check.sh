#!/usr/bin/env bash
# Offline repo gate: formatting, lints, build, and the full test suite.
# Everything runs without network access (the workspace has no external
# dependencies); run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (tier-1: root package)"
cargo test -q

echo "==> cargo test --workspace (member crates; the root package ran above)"
cargo test --workspace --exclude pic2d -q

echo "==> paper tables smoke (tables III/IV/VII through pic_bench::reference, row labels)"
# Tiny scale: the point is that the reference driver still runs and every
# paper row is still printed. Tables III/IV rewrite their results/ JSON, so
# put the recorded full-scale files back afterwards.
keep="$(mktemp -d)"
cp results/BENCH_table3.json results/BENCH_table4.json "$keep"
restore_tables() {
    cp "$keep"/BENCH_table3.json "$keep"/BENCH_table4.json results/
    rm -rf "$keep"
    trap - EXIT
}
trap restore_tables EXIT
smoke() { # <bin> <extra args> <row label>...
    local bin="$1" extra="$2" out label
    shift 2
    # shellcheck disable=SC2086
    out="$(cargo run --release -q -p pic-bench --bin "$bin" -- --particles 20000 --iters 4 $extra 2>/dev/null)"
    for label in "$@"; do
        grep -qF -- "$label" <<<"$out" || {
            echo "$bin: row '$label' missing"
            exit 1
        }
    done
}
smoke table3_loop_times "" "2d standard" "Row-major" "L4D(SIZE=8)" "Morton" "Hilbert"
smoke table4_opt_ladder "" "Baseline" "+ Loop Hoisting" "+ Loop Splitting" \
    "+ Redundant arrays (E and rho)" "+ Structure of Arrays (particles)" \
    "+ Space-filling curves (E and rho)" "+ Optimized update-positions loop" \
    "+ Lane-blocked kernels" "+ Vectorized deposition"
smoke table7_aos_soa_loops "--threads 2" "AoS, 1 loop" "AoS, 3 loops" "SoA, 1 loop" "SoA, 3 loops"
restore_tables

echo "==> benchmark package gate (fmt, clippy, unit tests, 1/20-size smoke of all eight workloads)"
# Compiles the benchmark against the library API it lists in
# benchmark/README.md and applies its output checks (finite, charge 1e-9,
# energy drift 1e-4, Landau peaks), so an API break or a wrong result fails
# here before the pipeline runs the benchmark.
bash benchmark/check.sh

echo "==> fault matrix (kill/drop/corrupt + elastic chaos scenarios, fixed seeds)"
cargo run --release -q -p pic-bench --bin fault_matrix

echo "==> elastic gate (weighted re-cut load bound, kill -> rejoin timing)"
cargo run --release -q -p pic-bench --bin bench_elastic

echo "==> job runtime gate (multi-tenant fault isolation, SRTF vs FIFO makespan)"
# The makespan comparison is wall-clock; retry once like perf_smoke.
cargo run --release -q -p pic-bench --bin bench_jobs || {
    echo "job runtime gate failed once; retrying"
    cargo run --release -q -p pic-bench --bin bench_jobs
}

echo "==> species gate (2d3v scenarios: conservation, cyclotron vs analytic, deposit parity)"
# Seeded and deterministic (no wall-clock gate), so no retry: a failure
# that does not repeat is a nondeterminism to find, not noise to ride out.
cargo run --release -q -p pic-bench --bin bench_species

echo "==> deposition parity matrix (DepositPath x threads x sortedness, release)"
cargo test -q --release --test parity_kernel_path

echo "==> loader against its libm reference (lane-blocked Box-Muller, release)"
# The lane math vectorizes only in release codegen, so the bit-identical
# positions and the velocity bound are checked there too.
cargo test -q --release --test integration_loader

echo "==> 2d3v species tests (EM snapshot pin, on-request J deposit parity, release)"
cargo test -q --release --test integration_species

echo "==> kernel microbenches -> results/BENCH_kernels.json"
cargo bench -p pic-bench --bench bench_kernels

echo "==> perf smoke (lane-blocked vs scalar kernels + vectorized deposit)"
# A shared/loaded box can miss the speedup threshold on an unlucky run;
# retry once before declaring a regression.
cargo run --release -q -p pic-bench --bin perf_smoke || {
    echo "perf smoke failed once; retrying"
    cargo run --release -q -p pic-bench --bin perf_smoke
}

echo "==> adaptive gate (controller vs static grid, steady + drifting workloads)"
# Wall-clock gates on a shared box jitter; retry once like perf_smoke.
cargo run --release -q -p pic-bench --bin bench_adaptive || {
    echo "adaptive gate failed once; retrying"
    cargo run --release -q -p pic-bench --bin bench_adaptive
}

echo "==> scaling gate (replication vs decomposition comm volume)"
cargo run --release -q -p pic-bench --bin bench_scaling

echo "==> solver gate (serial vs pool-parallel vs slab-distributed solve)"
# Wall-clock gates on a shared box jitter; retry once like perf_smoke.
cargo run --release -q -p pic-bench --bin bench_solver || {
    echo "solver gate failed once; retrying"
    cargo run --release -q -p pic-bench --bin bench_solver
}

echo "All checks passed."
