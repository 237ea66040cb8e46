//! A three-level cache hierarchy with a stream prefetcher and DRAM,
//! returning per-access latency in CPU cycles.
//!
//! Used by the `refcpu` baseline model of the Intel Core i7-M620
//! (Westmere): 32 KB L1D, 256 KB L2, 4 MB shared L3, three-channel
//! DDR3. Latency constants carry their datasheet/literature source in
//! the parameter doc comments.

use crate::cache::Cache;
use crate::prefetch::StreamPrefetcher;

/// Hierarchy geometry and timing (cycles at the CPU clock).
#[derive(Debug, Clone, Copy)]
pub struct HierarchyParams {
    /// L1 data cache size (i7-M620: 32 KB per core).
    pub l1_bytes: u32,
    /// L1 associativity (8-way).
    pub l1_ways: usize,
    /// L1 load-to-use latency (4 cycles on Nehalem/Westmere).
    pub l1_cycles: u64,
    /// L2 size (256 KB per core).
    pub l2_bytes: u32,
    /// L2 associativity (8-way).
    pub l2_ways: usize,
    /// L2 latency (~10 cycles).
    pub l2_cycles: u64,
    /// L3 size (4 MB shared on the M620).
    pub l3_bytes: u32,
    /// L3 associativity (16-way).
    pub l3_ways: usize,
    /// L3 latency (~38 cycles).
    pub l3_cycles: u64,
    /// DRAM latency (~60 ns = 160 cycles at 2.67 GHz).
    pub dram_cycles: u64,
    /// Line size throughout (64 B).
    pub line_bytes: u32,
    /// Enable the hardware stream prefetcher.
    pub prefetch: bool,
}

impl Default for HierarchyParams {
    fn default() -> Self {
        HierarchyParams {
            l1_bytes: 32 * 1024,
            l1_ways: 8,
            l1_cycles: 4,
            l2_bytes: 256 * 1024,
            l2_ways: 8,
            l2_cycles: 10,
            l3_bytes: 4 * 1024 * 1024,
            l3_ways: 16,
            l3_cycles: 38,
            dram_cycles: 160,
            line_bytes: 64,
            prefetch: true,
        }
    }
}

/// Hit/miss counters for one level.
#[derive(Debug, Clone, Copy, Default)]
pub struct LevelStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
}

impl LevelStats {
    /// Demand hit rate.
    pub fn hit_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }
}

/// The hierarchy.
pub struct MemoryHierarchy {
    params: HierarchyParams,
    l1: Cache,
    l2: Cache,
    l3: Cache,
    prefetcher: StreamPrefetcher,
    dram_accesses: u64,
    total_cycles: u64,
    accesses: u64,
}

impl MemoryHierarchy {
    /// Build from parameters.
    ///
    /// # Panics
    /// If a level's geometry is inconsistent (see [`Cache::new`]), or
    /// `l1_cycles` is 0: a hit costs at least a cycle, and the reference
    /// CPU prices every access by what it costs beyond an L1 hit.
    pub fn new(params: HierarchyParams) -> MemoryHierarchy {
        assert!(params.l1_cycles >= 1, "l1_cycles must be at least 1");
        MemoryHierarchy {
            params,
            l1: Cache::new(params.l1_bytes, params.line_bytes, params.l1_ways),
            l2: Cache::new(params.l2_bytes, params.line_bytes, params.l2_ways),
            l3: Cache::new(params.l3_bytes, params.line_bytes, params.l3_ways),
            prefetcher: StreamPrefetcher::intel_like(),
            dram_accesses: 0,
            total_cycles: 0,
            accesses: 0,
        }
    }

    /// Parameters in use.
    pub fn params(&self) -> HierarchyParams {
        self.params
    }

    /// log2 of the line size, which [`Cache::new`] has checked is a
    /// power of two.
    fn line_shift(&self) -> u32 {
        self.params.line_bytes.trailing_zeros()
    }

    /// One demand access to `addr`; returns its latency in cycles.
    pub fn access(&mut self, addr: u64, write: bool) -> u64 {
        self.accesses += 1;
        let p = self.params;
        let line_shift = self.line_shift();

        let cycles = if self.l1.access(addr, write).is_hit() {
            p.l1_cycles
        } else if self.l2.access(addr, write).is_hit() {
            p.l2_cycles
        } else if self.l3.access(addr, write).is_hit() {
            p.l3_cycles
        } else {
            self.dram_accesses += 1;
            p.dram_cycles
        };

        if p.prefetch {
            // Prefetches fill L2 and L3 so the next demand access pays
            // only the L2 latency instead of DRAM.
            for pf_line in self.prefetcher.observe(addr >> line_shift) {
                let pf_addr = pf_line << line_shift;
                self.l2.fill(pf_addr);
                self.l3.fill(pf_addr);
            }
        }

        self.total_cycles += cycles;
        cycles
    }

    /// Access a `bytes`-long object starting at `addr`; each distinct
    /// line is one access, and the latencies sum (worst case — the
    /// refcpu model divides by its memory-level parallelism factor).
    pub fn access_range(&mut self, addr: u64, bytes: u64, write: bool) -> u64 {
        let line_shift = self.line_shift();
        let first = addr >> line_shift;
        let last = (addr + bytes.max(1) - 1) >> line_shift;
        if first == last {
            return self.access(addr, write);
        }
        (first..=last)
            .map(|l| self.access(l << line_shift, write))
            .sum()
    }

    /// Demand statistics per level `(l1, l2, l3)`.
    pub fn stats(&self) -> (LevelStats, LevelStats, LevelStats) {
        (
            LevelStats {
                hits: self.l1.hits(),
                misses: self.l1.misses(),
            },
            LevelStats {
                hits: self.l2.hits(),
                misses: self.l2.misses(),
            },
            LevelStats {
                hits: self.l3.hits(),
                misses: self.l3.misses(),
            },
        )
    }

    /// DRAM demand accesses.
    pub fn dram_accesses(&self) -> u64 {
        self.dram_accesses
    }

    /// Total demand accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Sum of all access latencies so far.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_costs_dram_second_hits_l1() {
        let mut h = MemoryHierarchy::new(HierarchyParams::default());
        let first = h.access(0x10000, false);
        assert_eq!(first, h.params().dram_cycles);
        let second = h.access(0x10000, false);
        assert_eq!(second, h.params().l1_cycles);
    }

    #[test]
    fn sequential_scan_benefits_from_prefetch() {
        let p = HierarchyParams::default();
        let mut with = MemoryHierarchy::new(p);
        let mut without = MemoryHierarchy::new(HierarchyParams {
            prefetch: false,
            ..p
        });
        let n = 4096u64;
        let (mut c_with, mut c_without) = (0u64, 0u64);
        for i in 0..n {
            c_with += with.access(i * 64, false);
            c_without += without.access(i * 64, false);
        }
        assert!(
            c_with < c_without / 2,
            "prefetch should at least halve sequential-scan cost: {c_with} vs {c_without}"
        );
    }

    #[test]
    fn random_scan_gets_no_prefetch_help() {
        let p = HierarchyParams::default();
        let mut h = MemoryHierarchy::new(p);
        // Linear-congruential scatter over 64 MB: virtually all DRAM.
        let mut x = 12345u64;
        let mut total = 0;
        let n = 2000;
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            total += h.access((x >> 8) % (64 << 20), false);
        }
        assert!(total as f64 / n as f64 > p.dram_cycles as f64 * 0.8);
    }

    #[test]
    fn l2_captures_medium_working_set() {
        let p = HierarchyParams {
            prefetch: false,
            ..HierarchyParams::default()
        };
        let mut h = MemoryHierarchy::new(p);
        // 128 KB working set: fits L2, not L1.
        let lines = (128 * 1024) / 64;
        for _ in 0..4 {
            for i in 0..lines as u64 {
                h.access(i * 64, false);
            }
        }
        let (_l1, l2, _l3) = h.stats();
        assert!(l2.hit_rate() > 0.5, "L2 hit rate {}", l2.hit_rate());
    }

    #[test]
    fn access_range_touches_each_line_once() {
        let mut h = MemoryHierarchy::new(HierarchyParams::default());
        // 256 bytes starting mid-line spans 5 lines.
        let c = h.access_range(32, 256, false);
        assert_eq!(h.accesses(), 5);
        assert!(c >= 5 * h.params().l1_cycles);
    }

    #[test]
    fn stats_and_reset() {
        let mut h = MemoryHierarchy::new(HierarchyParams::default());
        h.access(0, true);
        h.access(0, true);
        let (l1, _, _) = h.stats();
        assert_eq!(l1.hits, 1);
        assert_eq!(l1.misses, 1);
        assert_eq!(h.accesses(), 2);
        assert_eq!(h.dram_accesses(), 1);
    }

    #[test]
    #[should_panic(expected = "l1_cycles must be at least 1")]
    fn zero_cycle_l1_rejected() {
        let _ = MemoryHierarchy::new(HierarchyParams {
            l1_cycles: 0,
            ..HierarchyParams::default()
        });
    }
}
