//! The host the numbers were taken on: the envelope every report carries,
//! and the STREAM-triad calibration that the `*_bw_frac` metrics divide by.

use crate::json::{obj, Json};
use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

const MIB: usize = 1 << 20;

/// Cache sizes in bytes as sysfs reports them for cpu0 (what `lscpu`
/// prints); 0 when a level is not reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct Caches {
    pub l1d: usize,
    pub l2: usize,
    pub l3: usize,
}

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn parse_size(s: &str) -> usize {
    let (num, mul) = match s.as_bytes().last() {
        Some(b'K') => (&s[..s.len() - 1], 1024),
        Some(b'M') => (&s[..s.len() - 1], MIB),
        Some(b'G') => (&s[..s.len() - 1], 1024 * MIB),
        _ => (s, 1),
    };
    num.parse::<usize>().map_or(0, |n| n * mul)
}

pub fn caches() -> Caches {
    let mut c = Caches::default();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trim(&format!("{dir}/level")),
            read_trim(&format!("{dir}/type")),
            read_trim(&format!("{dir}/size")),
        ) else {
            continue;
        };
        let size = parse_size(&size);
        match (level.as_str(), kind.as_str()) {
            ("1", "Data") => c.l1d = size,
            ("2", _) => c.l2 = size,
            ("3", _) => c.l3 = size,
            _ => {}
        }
    }
    c
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn mem_available_bytes() -> usize {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("MemAvailable:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<usize>().ok())
        })
        .map_or(usize::MAX, |kb| kb * 1024)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Who built and ran this: commit, compiler, flags, CPU. `run.sh` passes the
/// commit in `PIC_BENCH_COMMIT` (a driver checkout is not a git repository,
/// so it may be `unknown`); compiler and flags were recorded by `build.rs`.
pub fn envelope() -> Json {
    let c = caches();
    let flags = env!("PIC_BENCH_RUSTFLAGS");
    obj([
        (
            "commit",
            std::env::var("PIC_BENCH_COMMIT")
                .unwrap_or_else(|_| "unknown".into())
                .into(),
        ),
        ("rustc", env!("PIC_BENCH_RUSTC").into()),
        ("rustflags", flags.into()),
        (
            "target_cpu_native",
            flags.contains("target-cpu=native").into(),
        ),
        ("nproc", nproc().into()),
        ("cpu_model", cpu_model().into()),
        ("l1d_bytes", c.l1d.into()),
        ("l2_bytes", c.l2.into()),
        ("l3_bytes", c.l3.into()),
    ])
}

/// One triad measurement.
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    /// Median GB/s over the repetitions (3 × 8 bytes per element, the
    /// STREAM convention: write-allocate traffic is not counted).
    pub gbps: f64,
    /// Bytes of each of the three arrays.
    pub array_bytes: usize,
}

/// Three arrays of `n` doubles for `a[i] = b[i] + s·c[i]`, allocated (and
/// first-touched) once and reused across thread counts: at DRAM sizes the
/// page faults cost more than the timed passes.
struct TriadArrays {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl TriadArrays {
    fn new(n: usize) -> Self {
        Self {
            a: vec![0.5; n],
            b: vec![1.5; n],
            c: vec![2.5; n],
        }
    }

    /// One pass, split `threads` ways; the calling thread takes the first
    /// part itself, like the library's pool leader.
    fn pass(&mut self, threads: usize) {
        let s = black_box(3.0f64);
        let chunk = self.a.len().div_ceil(threads).max(1);
        let kernel = move |pa: &mut [f64], pb: &[f64], pc: &[f64]| {
            for ((x, y), z) in pa.iter_mut().zip(pb).zip(pc) {
                *x = y + s * z;
            }
        };
        std::thread::scope(|sc| {
            let mut parts = self
                .a
                .chunks_mut(chunk)
                .zip(self.b.chunks(chunk).zip(self.c.chunks(chunk)));
            let first = parts.next();
            for (pa, (pb, pc)) in parts {
                sc.spawn(move || kernel(pa, pb, pc));
            }
            if let Some((pa, (pb, pc))) = first {
                kernel(pa, pb, pc);
            }
        });
    }

    /// Median GB/s of `reps` timed passes after untimed passes lasting
    /// `warm_s` seconds (one at least).
    fn measure(&mut self, reps: usize, threads: usize, warm_s: f64) -> Triad {
        let t = Instant::now();
        self.pass(threads);
        while t.elapsed().as_secs_f64() < warm_s {
            self.pass(threads);
        }
        let mut rates = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            self.pass(threads);
            let secs = t.elapsed().as_secs_f64();
            black_box(&self.a);
            rates.push(24.0 * self.a.len() as f64 / secs / 1e9);
        }
        Triad {
            gbps: median(&rates),
            array_bytes: 8 * self.a.len(),
        }
    }
}

/// The three calibration points of a traced run.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// 22 MiB in total: cache-resident on this class of host.
    pub l3: Triad,
    /// DRAM-resident arrays ([`dram_array_bytes`]), one thread.
    pub dram: Triad,
    /// The same arrays, two threads.
    pub dram_2t: Triad,
    /// Reported last-level cache size, bytes.
    pub llc_bytes: usize,
    /// 4 × (L3 + L2 of the cores used) as reported: what each DRAM array
    /// would hold were it not capped.
    pub dram_wanted_bytes: usize,
}

impl Calibration {
    /// The triad matching where `working_set_bytes` lives and how many
    /// threads stream it — the denominator of a `*_bw_frac` metric.
    pub fn matching(&self, working_set_bytes: usize, threads: usize) -> Triad {
        // Up to half the reported last-level cache (and always up to the
        // cache-resident triad's own footprint) the data streams from
        // cache; above that, DRAM is the honest ceiling.
        if working_set_bytes <= (3 * self.l3.array_bytes).max(self.llc_bytes / 2) {
            self.l3
        } else if threads > 1 {
            self.dram_2t
        } else {
            self.dram
        }
    }

    pub fn to_json(self) -> Json {
        let one = |t: Triad| {
            obj([
                ("gbps", t.gbps.into()),
                ("array_bytes", t.array_bytes.into()),
            ])
        };
        obj([
            ("triad_l3", one(self.l3)),
            ("triad_dram", one(self.dram)),
            ("triad_dram_2t", one(self.dram_2t)),
            ("dram_array_wanted_bytes", self.dram_wanted_bytes.into()),
        ])
    }
}

/// Largest DRAM triad array. Four times the caches `lscpu` reports would be
/// 1.1 GiB per array on the sizing host (a 2-vCPU slice of a socket that
/// reports its whole 260 MiB L3), and first-touching three of them costs
/// 10 s of every traced run. The triad there is flat at 12.2–12.5 GB/s (one
/// thread) and 23–24 GB/s (two) from 128 MiB per array to 1056 MiB, so the
/// cap costs the number nothing; both sizes are printed.
const DRAM_ARRAY_CAP: usize = 256 * MIB;

/// Discarded two-thread work before the two-thread triad is timed.
const TWO_THREAD_WARM_S: f64 = 2.0;

/// Bytes of each DRAM triad array: 4 × (L3 + L2 of two cores) as reported,
/// within [64 MiB, [`DRAM_ARRAY_CAP`]] and an eighth of the free memory.
fn dram_array_bytes(wanted: usize, available: usize) -> usize {
    wanted.clamp(64 * MIB, DRAM_ARRAY_CAP).min(available / 8)
}

/// Run the calibration. `smoke` shrinks the DRAM arrays to 64 MiB so the
/// functional pass stays fast (the numbers are then not DRAM numbers, and
/// the printed sizes say so).
pub fn calibrate(smoke: bool) -> Calibration {
    let c = caches();
    let l3_n = 22 * MIB / 24;
    let dram_wanted_bytes = 4 * (c.l3 + 2 * c.l2);
    let dram_bytes = if smoke {
        64 * MIB
    } else {
        dram_array_bytes(dram_wanted_bytes, mem_available_bytes())
    };
    let l3 = TriadArrays::new(l3_n).measure(if smoke { 5 } else { 25 }, 1, 0.0);
    let mut big = TriadArrays::new(dram_bytes / 8);
    let dram = big.measure(5, 1, 0.0);
    // The sizing host runs both threads on one core until two-thread demand
    // has lasted 1.2 s (12 GB/s, then 24 GB/s from one pass to the next):
    // the two-thread triad gets the warm-up every workload gets.
    let dram_2t = big.measure(5, 2, if smoke { 0.0 } else { TWO_THREAD_WARM_S });
    Calibration {
        l3,
        dram,
        dram_2t,
        llc_bytes: c.l3,
        dram_wanted_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("48K"), 48 * 1024);
        assert_eq!(parse_size("4096K"), 4 * MIB);
        assert_eq!(parse_size("260M"), 260 * MIB);
        assert_eq!(parse_size("garbage"), 0);
    }

    #[test]
    fn dram_arrays_are_capped() {
        let free = 16 * 1024 * MIB;
        assert_eq!(dram_array_bytes(4 * 268 * MIB, free), DRAM_ARRAY_CAP);
        assert_eq!(dram_array_bytes(4 * 40 * MIB, free), 160 * MIB);
        assert_eq!(dram_array_bytes(4 * MIB, free), 64 * MIB);
        assert_eq!(dram_array_bytes(4 * 268 * MIB, 800 * MIB), 100 * MIB);
    }

    #[test]
    fn triad_reports_a_rate() {
        let t = TriadArrays::new(1 << 14).measure(3, 2, 0.0);
        assert!(t.gbps > 0.0 && t.gbps.is_finite());
        assert_eq!(t.array_bytes, 8 << 14);
    }

    #[test]
    fn matching_picks_by_residency_and_threads() {
        let t = |g| Triad {
            gbps: g,
            array_bytes: 7 * MIB,
        };
        let c = Calibration {
            l3: t(30.0),
            dram: t(12.0),
            dram_2t: t(16.0),
            llc_bytes: 260 * MIB,
            dram_wanted_bytes: 4 * 268 * MIB,
        };
        assert_eq!(c.matching(20 * MIB, 2).gbps, 30.0);
        assert_eq!(c.matching(100 * MIB, 1).gbps, 30.0);
        assert_eq!(c.matching(700 * MIB, 1).gbps, 12.0);
        assert_eq!(c.matching(700 * MIB, 2).gbps, 16.0);
    }
}
