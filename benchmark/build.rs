//! Records how the benchmark was compiled, for the envelope of every report:
//! the compiler version and the rustflags in force (the root
//! `.cargo/config.toml` sets `-C target-cpu=native`; a build that misses it
//! runs the lane kernels on the SSE2 baseline and is not comparable).

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    // Flags are separated by 0x1f in CARGO_ENCODED_RUSTFLAGS.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\u{1f}', " ");
    println!("cargo:rustc-env=PIC_BENCH_RUSTC={version}");
    println!("cargo:rustc-env=PIC_BENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
