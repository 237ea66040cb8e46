//! A functional set-associative write-back, write-allocate LRU cache.
//!
//! Timing lives in [`crate::hierarchy`]; this module only answers
//! "hit or miss, and did we evict a dirty line".

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// Line was present.
    Hit,
    /// Line was absent; `dirty_writeback` reports whether the evicted
    /// victim must be written back.
    Miss {
        /// A dirty victim line was evicted.
        dirty_writeback: bool,
    },
}

impl CacheAccess {
    /// True for [`CacheAccess::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, CacheAccess::Hit)
    }
}

/// A set-associative cache.
///
/// Host layout: two packed words per way instead of a struct, so a set
/// of eight ways is one host cache line of tags, plus one byte per set
/// naming its most recently touched way.
#[derive(Debug, Clone)]
pub struct Cache {
    line_bytes: u32,
    line_shift: u32,
    set_shift: u32,
    sets: usize,
    ways: usize,
    /// Per way: `tag << 1 | 1`, or 0 for an invalid way (never equal to
    /// a lookup key, whose low bit is set).
    tags: Vec<u64>,
    /// Per way: `lru_stamp << 1 | dirty`; 0 for an invalid way. Stamps
    /// of valid ways are unique and at least 1, so ordering these words
    /// orders the stamps, with invalid ways first.
    meta: Vec<u64>,
    /// Per set: the way holding the set's largest stamp. Stamps are
    /// only ever compared within a set, so touching that way again
    /// cannot change any later victim choice and needs no new stamp.
    mru: Vec<u8>,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Cache {
    /// Build a cache of `size_bytes` with `line_bytes` lines and
    /// `ways`-way associativity.
    ///
    /// # Panics
    /// If the geometry is inconsistent (size not divisible into sets,
    /// non-power-of-two line size or set count, lines under 2 bytes, or
    /// more than 256 ways).
    pub fn new(size_bytes: u32, line_bytes: u32, ways: usize) -> Cache {
        assert!(
            line_bytes.is_power_of_two() && line_bytes >= 2,
            "line size must be a power of two, at least 2 (got {line_bytes})"
        );
        assert!(
            (1..=256).contains(&ways),
            "need between 1 and 256 ways (got {ways})"
        );
        let total_lines = (size_bytes / line_bytes) as usize;
        assert!(
            total_lines > 0 && total_lines.is_multiple_of(ways),
            "size {size_bytes} / line {line_bytes} not divisible into {ways} ways"
        );
        let sets = total_lines / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            sets,
            ways,
            tags: vec![0; total_lines],
            meta: vec![0; total_lines],
            mru: vec![0; sets],
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Set index and lookup key (`tag << 1 | 1`) of `addr`'s line.
    fn set_and_key(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        (set, (line >> self.set_shift) << 1 | 1)
    }

    /// Bring `addr`'s line in as the most recent of its set, marking it
    /// dirty on `write`; a miss evicts the least recent way (the first
    /// invalid one if any) and starts the line dirty only on `write`.
    fn touch(&mut self, addr: u64, write: bool) -> CacheAccess {
        let (set, key) = self.set_and_key(addr);
        let base = set * self.ways;
        let recent = base + self.mru[set] as usize;
        if self.tags[recent] == key {
            self.meta[recent] |= write as u64;
            return CacheAccess::Hit;
        }
        self.tick += 1;
        let tags = &mut self.tags[base..base + self.ways];
        let meta = &mut self.meta[base..base + self.ways];
        // One pass: find the line, and the first minimum of `meta` in
        // case it is absent.
        let (mut victim, mut oldest) = (0, u64::MAX);
        for way in 0..tags.len() {
            if tags[way] == key {
                meta[way] = self.tick << 1 | (meta[way] & 1) | write as u64;
                self.mru[set] = way as u8;
                return CacheAccess::Hit;
            }
            if meta[way] < oldest {
                (victim, oldest) = (way, meta[way]);
            }
        }
        let dirty_writeback = oldest & 1 == 1;
        self.writebacks += dirty_writeback as u64;
        tags[victim] = key;
        meta[victim] = self.tick << 1 | write as u64;
        self.mru[set] = victim as u8;
        CacheAccess::Miss { dirty_writeback }
    }

    /// Access the line containing `addr`; `write` marks it dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        let outcome = self.touch(addr, write);
        if outcome.is_hit() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        outcome
    }

    /// Probe without modifying state (no LRU update).
    pub fn contains(&self, addr: u64) -> bool {
        let (set, key) = self.set_and_key(addr);
        let base = set * self.ways;
        self.tags[base..base + self.ways].contains(&key)
    }

    /// Insert the line containing `addr` without counting a demand
    /// access (prefetch fill). Returns whether a dirty victim was
    /// evicted.
    pub fn fill(&mut self, addr: u64) -> bool {
        self.touch(addr, false)
            == CacheAccess::Miss {
                dirty_writeback: true,
            }
    }

    /// Demand hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Demand hit rate.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_access_hits() {
        let mut c = Cache::new(32 * 1024, 64, 8);
        assert!(!c.access(0x1000, false).is_hit());
        assert!(c.access(0x1000, false).is_hit());
        assert!(c.access(0x1030, false).is_hit()); // same 64 B line
        assert!(!c.access(0x1040, false).is_hit()); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // Direct-mapped-ish tiny cache: 2 sets x 2 ways x 64 B.
        let mut c = Cache::new(256, 64, 2);
        assert_eq!(c.sets(), 2);
        // Three distinct lines mapping to set 0: 0, 128, 256 (line/sets).
        let s0 = |i: u64| i * 2 * 64; // stride of sets*line keeps set 0
        c.access(s0(0), false);
        c.access(s0(1), false);
        c.access(s0(0), false); // refresh line 0; line 1 is now LRU
        c.access(s0(2), false); // evicts line 1
        assert!(c.contains(s0(0)));
        assert!(!c.contains(s0(1)));
        assert!(c.contains(s0(2)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = Cache::new(128, 64, 1); // 2 sets, direct mapped
        c.access(0, true); // dirty line in set 0
        let a = c.access(128, false); // same set, evicts dirty line
        assert_eq!(
            a,
            CacheAccess::Miss {
                dirty_writeback: true
            }
        );
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = Cache::new(128, 64, 1);
        c.access(0, false);
        let a = c.access(128, false);
        assert_eq!(
            a,
            CacheAccess::Miss {
                dirty_writeback: false
            }
        );
    }

    #[test]
    fn fill_inserts_without_demand_stats() {
        let mut c = Cache::new(32 * 1024, 64, 8);
        c.fill(0x2000);
        assert!(c.contains(0x2000));
        assert_eq!(c.misses(), 0);
        assert!(c.access(0x2000, false).is_hit());
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = Cache::new(1024, 64, 2);
        // 64 lines >> 16-line capacity, round robin: ~0% hit rate on
        // second pass too (LRU worst case).
        for pass in 0..2 {
            for i in 0..64u64 {
                let r = c.access(i * 64, false);
                let _ = (pass, r);
            }
        }
        assert!(c.hit_rate() < 0.01, "hit rate {}", c.hit_rate());
    }

    #[test]
    fn small_working_set_hits_after_warmup() {
        let mut c = Cache::new(32 * 1024, 64, 8);
        for _ in 0..10 {
            for i in 0..100u64 {
                c.access(i * 64, false);
            }
        }
        assert!(c.hit_rate() > 0.85, "hit rate {}", c.hit_rate());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_line_rejected() {
        let _ = Cache::new(1024, 48, 2);
    }

    #[test]
    #[should_panic(expected = "between 1 and 256 ways")]
    fn more_ways_than_the_recent_way_hint_can_name_rejected() {
        let _ = Cache::new(512 * 64, 64, 512);
    }

    #[test]
    fn most_recent_way_shortcut_keeps_dirty_bits_and_lru_order() {
        // Direct-mapped set 0: a read fill, then a write that takes the
        // most-recent-way shortcut, must still leave the line dirty.
        let mut c = Cache::new(128, 64, 1);
        c.access(0, false);
        c.access(8, true);
        assert_eq!(
            c.access(128, false),
            CacheAccess::Miss {
                dirty_writeback: true
            }
        );
        // Two ways: repeats of the recent line take no new stamp, and
        // the other line is still the one evicted.
        let mut c = Cache::new(128, 64, 2);
        c.access(0, false);
        c.access(64, false);
        for _ in 0..3 {
            c.access(64, false);
            c.fill(64);
        }
        c.access(128, false);
        assert!(!c.contains(0) && c.contains(64) && c.contains(128));
    }
}
