#!/bin/bash
# Regenerates every recorded experiment output (see EXPERIMENTS.md).
# Scales chosen to finish in ~20 min on one core; every binary accepts
# --particles/--grid/--iters to run at paper scale.
cd /root/repo
set -x
R=results
cargo run --release -p pic-bench --bin fig3_fig4_layouts > $R/fig3_fig4.txt 2>/dev/null
cargo run --release -p pic-bench --bin physics_validation -- --particles 400000 > $R/physics_validation.txt 2>/dev/null
cargo run --release -p pic-bench --bin table2_cache_misses -- --particles 400000 --grid 128 --iters 60 > $R/table2.txt 2>/dev/null
cargo run --release -p pic-bench --bin fig5_fig6_cache_timeseries -- --particles 250000 --grid 128 --iters 100 > $R/fig5_fig6.txt 2>/dev/null
cargo run --release -p pic-bench --bin table3_loop_times -- --particles 500000 --iters 100 --l4d-sweep > $R/table3.txt 2>/dev/null
cargo run --release -p pic-bench --bin table4_opt_ladder -- --particles 500000 --iters 100 > $R/table4.txt 2>/dev/null
cargo run --release -p pic-bench --bin table5_per_particle_ns -- --particles 500000 --iters 100 --sort-sweep > $R/table5.txt 2>/dev/null
cargo run --release -p pic-bench --bin table6_strong_scaling_threads -- --particles 500000 --iters 30 > $R/table6.txt 2>/dev/null
cargo run --release -p pic-bench --bin table7_aos_soa_loops -- --particles 500000 --iters 30 --threads 2 > $R/table7.txt 2>/dev/null
cargo run --release -p pic-bench --bin fig7_weak_scaling -- --particles-per-rank 100000 --iters 10 --max-ranks 4 > $R/fig7.txt 2>/dev/null
cargo run --release -p pic-bench --bin fig8_memory_bandwidth -- --particles 500000 --iters 20 --max-threads 4 > $R/fig8.txt 2>/dev/null
cargo run --release -p pic-bench --bin fig9_strong_scaling_nodes -- --particles 800000 --grid 256 --iters 8 --max-ranks 4 > $R/fig9.txt 2>/dev/null
echo ALL_DONE
