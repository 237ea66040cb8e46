//! The straightforward models `memsim` had before its host fast path.

// Parts of the old public surface go unused by the test.
#![allow(dead_code)]

mod cache;
mod prefetch;

pub use cache::Cache;
pub use prefetch::StreamPrefetcher;

use memsim::HierarchyParams;

/// `MemoryHierarchy::access` as it stood, over the reference parts.
/// Prefetch addresses wrap the way the release build's did (a
/// descending stream near line 0 asks for lines "below" it; the debug
/// build's multiplication panicked there).
pub struct Hierarchy {
    pub params: HierarchyParams,
    pub l1: Cache,
    pub l2: Cache,
    pub l3: Cache,
    pub prefetcher: StreamPrefetcher,
    pub dram_accesses: u64,
}

impl Hierarchy {
    pub fn new(params: HierarchyParams) -> Hierarchy {
        Hierarchy {
            params,
            l1: Cache::new(params.l1_bytes, params.line_bytes, params.l1_ways),
            l2: Cache::new(params.l2_bytes, params.line_bytes, params.l2_ways),
            l3: Cache::new(params.l3_bytes, params.line_bytes, params.l3_ways),
            prefetcher: StreamPrefetcher::intel_like(),
            dram_accesses: 0,
        }
    }

    pub fn access(&mut self, addr: u64, write: bool) -> u64 {
        let p = self.params;
        let line = addr / p.line_bytes as u64;
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
            for pf_line in self.prefetcher.observe(line) {
                let pf_addr = pf_line.wrapping_mul(p.line_bytes as u64);
                self.l2.fill(pf_addr);
                self.l3.fill(pf_addr);
            }
        }
        cycles
    }

    pub fn access_range(&mut self, addr: u64, bytes: u64, write: bool) -> u64 {
        let line = self.params.line_bytes as u64;
        let first = addr / line;
        let last = (addr + bytes.max(1) - 1) / line;
        (first..=last).map(|l| self.access(l * line, write)).sum()
    }
}
