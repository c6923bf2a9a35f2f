//! A multi-level cache hierarchy with per-level hit/miss statistics.

use crate::cache::{Cache, CacheConfig, Probe};
use crate::{AccessKind, MemSink};

/// Geometry of the whole hierarchy, L1 first.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Per-level geometries, ordered from the level closest to the core.
    pub levels: Vec<CacheConfig>,
}

impl HierarchyConfig {
    /// The paper's single-core test machine (Intel Xeon E5-2650 v3, Haswell):
    /// 32 KiB 8-way L1d, 256 KiB 8-way L2, 25 MiB 20-way shared L3,
    /// 64-byte lines throughout.
    pub fn haswell() -> Self {
        Self {
            levels: vec![
                CacheConfig {
                    size_bytes: 32 * 1024,
                    ways: 8,
                    line_bytes: 64,
                    prefetch: true,
                },
                CacheConfig {
                    size_bytes: 256 * 1024,
                    ways: 8,
                    line_bytes: 64,
                    prefetch: true,
                },
                CacheConfig {
                    size_bytes: 25 * 1024 * 1024,
                    ways: 20,
                    line_bytes: 64,
                    prefetch: true,
                },
            ],
        }
    }

    /// A miniature hierarchy for fast tests: 1 KiB/2, 4 KiB/4, 16 KiB/8.
    pub fn tiny() -> Self {
        Self {
            levels: vec![
                CacheConfig {
                    size_bytes: 1024,
                    ways: 2,
                    line_bytes: 64,
                    prefetch: false,
                },
                CacheConfig {
                    size_bytes: 4096,
                    ways: 4,
                    line_bytes: 64,
                    prefetch: false,
                },
                CacheConfig {
                    size_bytes: 16 * 1024,
                    ways: 8,
                    line_bytes: 64,
                    prefetch: false,
                },
            ],
        }
    }
}

/// Hit/miss counters for one level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses that found their line resident.
    pub hits: u64,
    /// Accesses that had to allocate.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl LevelStats {
    /// Total accesses seen by this level.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Misses (convenience accessor mirroring the paper's tables).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio (`0.0` when the level saw no traffic).
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }
}

/// Statistics for the whole hierarchy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    levels: Vec<LevelStats>,
    /// Line fetches that missed every level (DRAM accesses).
    pub memory_fetches: u64,
}

impl HierarchyStats {
    /// Stats for level `i` (0 = L1).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn level(&self, i: usize) -> LevelStats {
        self.levels[i]
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Difference `self − earlier`, for per-iteration deltas.
    pub fn delta(&self, earlier: &HierarchyStats) -> HierarchyStats {
        HierarchyStats {
            levels: self
                .levels
                .iter()
                .zip(&earlier.levels)
                .map(|(a, b)| LevelStats {
                    hits: a.hits - b.hits,
                    misses: a.misses - b.misses,
                    writebacks: a.writebacks - b.writebacks,
                })
                .collect(),
            memory_fetches: self.memory_fetches - earlier.memory_fetches,
        }
    }
}

/// An inclusive multi-level cache hierarchy.
///
/// An access probes L1; on a miss it allocates there and probes L2, and so
/// on. Accesses spanning a line boundary are split into one probe per line
/// (as real hardware does).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    caches: Vec<Cache>,
    stats: HierarchyStats,
    line_bytes: u64,
}

impl Hierarchy {
    /// Build a hierarchy. All levels must share one line size.
    ///
    /// # Panics
    /// Panics on an invalid geometry or mismatched line sizes.
    pub fn new(cfg: HierarchyConfig) -> Self {
        assert!(!cfg.levels.is_empty(), "hierarchy needs at least one level");
        let line = cfg.levels[0].line_bytes;
        assert!(
            cfg.levels.iter().all(|l| l.line_bytes == line),
            "all levels must share a line size"
        );
        let caches: Vec<Cache> = cfg.levels.iter().map(|&c| Cache::new(c)).collect();
        let stats = HierarchyStats {
            levels: vec![LevelStats::default(); caches.len()],
            memory_fetches: 0,
        };
        Self {
            caches,
            stats,
            line_bytes: line as u64,
        }
    }

    /// Current counters (cumulative since construction or [`reset_stats`](Self::reset_stats)).
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Zero the counters, keeping cache contents (warm state).
    pub fn reset_stats(&mut self) {
        for l in &mut self.stats.levels {
            *l = LevelStats::default();
        }
        self.stats.memory_fetches = 0;
    }

    /// Invalidate all lines and zero the counters (cold state).
    pub fn flush(&mut self) {
        for c in &mut self.caches {
            c.flush();
        }
        self.reset_stats();
    }

    /// Probe one byte-address access of `bytes` bytes.
    pub fn access(&mut self, addr: u64, bytes: u32, kind: AccessKind) {
        let first = addr / self.line_bytes;
        let last = (addr + bytes.max(1) as u64 - 1) / self.line_bytes;
        for line in first..=last {
            self.access_line(line, kind);
        }
    }

    fn access_line(&mut self, line: u64, kind: AccessKind) {
        for (i, c) in self.caches.iter_mut().enumerate() {
            match c.probe_line(line, kind) {
                Probe::Hit => {
                    self.stats.levels[i].hits += 1;
                    return;
                }
                Probe::Miss { writeback } => {
                    self.stats.levels[i].misses += 1;
                    if writeback.is_some() {
                        self.stats.levels[i].writebacks += 1;
                    }
                    // fall through to the next level
                }
            }
        }
        self.stats.memory_fetches += 1;
    }
}

impl MemSink for Hierarchy {
    #[inline]
    fn read(&mut self, addr: u64, bytes: u32) {
        self.access(addr, bytes, AccessKind::Read);
    }

    #[inline]
    fn write(&mut self, addr: u64, bytes: u32) {
        self.access(addr, bytes, AccessKind::Write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_misses_once_per_line() {
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        for addr in (0..64 * 64u64).step_by(8) {
            h.read(addr, 8);
        }
        let s = h.stats();
        // 64 lines touched, 8 accesses per line: 64 L1 misses, 7*64 hits.
        assert_eq!(s.level(0).misses, 64);
        assert_eq!(s.level(0).hits, 7 * 64);
        // L2 and L3 see only the 64 L1 misses, all cold.
        assert_eq!(s.level(1).accesses(), 64);
        assert_eq!(s.level(1).misses, 64);
        assert_eq!(s.level(2).misses, 64);
        assert_eq!(s.memory_fetches, 64);
    }

    #[test]
    fn working_set_fits_l2_not_l1() {
        let mut h = Hierarchy::new(HierarchyConfig::tiny()); // L1 = 1 KiB = 16 lines
        let lines = 32u64; // 2 KiB: fits L2 (4 KiB), not L1
                           // Two passes: the second pass hits L2 but misses L1.
        for pass in 0..2 {
            for l in 0..lines {
                h.read(l * 64, 8);
            }
            if pass == 0 {
                assert_eq!(h.stats().level(0).misses, lines);
                assert_eq!(h.stats().level(1).misses, lines);
            }
        }
        let s = h.stats();
        assert_eq!(s.level(0).misses, 2 * lines, "L1 thrashes");
        assert_eq!(s.level(1).misses, lines, "L2 holds the set");
        assert_eq!(s.level(1).hits, lines);
        assert_eq!(s.memory_fetches, lines);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        h.read(60, 8); // bytes 60..68: lines 0 and 1
        assert_eq!(h.stats().level(0).accesses(), 2);
        assert_eq!(h.stats().level(0).misses, 2);
    }

    #[test]
    fn reset_keeps_warm_state() {
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        h.read(0, 8);
        h.reset_stats();
        h.read(0, 8); // still resident
        assert_eq!(h.stats().level(0).hits, 1);
        assert_eq!(h.stats().level(0).misses, 0);
    }

    #[test]
    fn flush_goes_cold() {
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        h.read(0, 8);
        h.flush();
        h.read(0, 8);
        assert_eq!(h.stats().level(0).misses, 1);
    }

    #[test]
    fn delta_snapshots() {
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        h.read(0, 8);
        let snap = h.stats().clone();
        h.read(64, 8);
        h.read(64, 8);
        let d = h.stats().delta(&snap);
        assert_eq!(d.level(0).misses, 1);
        assert_eq!(d.level(0).hits, 1);
    }

    #[test]
    fn haswell_geometry() {
        let cfg = HierarchyConfig::haswell();
        assert_eq!(cfg.levels[0].sets(), 64);
        assert_eq!(cfg.levels[1].sets(), 512);
        // 25 MiB / (20 × 64) = 20480 sets — not a power of two, which the
        // modulo-indexed Cache supports (real L3s hash across CBo slices).
        assert_eq!(cfg.levels[2].sets(), 20480);
    }

    #[test]
    fn haswell_builds() {
        let h = Hierarchy::new(HierarchyConfig::haswell());
        assert_eq!(h.stats().num_levels(), 3);
    }

    #[test]
    fn write_traffic_counted() {
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        h.write(0, 8);
        h.write(0, 8);
        assert_eq!(h.stats().level(0).misses, 1);
        assert_eq!(h.stats().level(0).hits, 1);
    }
}
