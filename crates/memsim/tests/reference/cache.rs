//! `memsim::Cache` as it stood before the packed layout, kept verbatim
//! as the model the fast one is tested against: an array of `Line`
//! structs, one scan to find a line and a second to pick the victim.

use memsim::CacheAccess;

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU timestamp (monotone per cache).
    used: u64,
}

/// A set-associative cache.
#[derive(Debug, Clone)]
pub struct Cache {
    line_bytes: u32,
    sets: usize,
    ways: usize,
    lines: Vec<Line>,
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
    /// or non-power-of-two line size).
    pub fn new(size_bytes: u32, line_bytes: u32, ways: usize) -> Cache {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways > 0, "need at least one way");
        let total_lines = (size_bytes / line_bytes) as usize;
        assert!(
            total_lines > 0 && total_lines.is_multiple_of(ways),
            "size {size_bytes} / line {line_bytes} not divisible into {ways} ways"
        );
        let sets = total_lines / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            line_bytes,
            sets,
            ways,
            lines: vec![Line::default(); total_lines],
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

    fn index_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes as u64;
        ((line as usize) & (self.sets - 1), line / self.sets as u64)
    }

    /// Access the line containing `addr`; `write` marks it dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        self.tick += 1;
        let (set, tag) = self.index_and_tag(addr);
        let base = set * self.ways;
        let set_lines = &mut self.lines[base..base + self.ways];

        if let Some(line) = set_lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.used = self.tick;
            line.dirty |= write;
            self.hits += 1;
            return CacheAccess::Hit;
        }

        // Miss: fill, evicting the LRU way.
        self.misses += 1;
        let victim = set_lines
            .iter_mut()
            .min_by_key(|l| if l.valid { l.used } else { 0 })
            .expect("ways > 0");
        let dirty_writeback = victim.valid && victim.dirty;
        if dirty_writeback {
            self.writebacks += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: write,
            used: self.tick,
        };
        CacheAccess::Miss { dirty_writeback }
    }

    /// Probe without modifying state (no LRU update).
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.index_and_tag(addr);
        let base = set * self.ways;
        self.lines[base..base + self.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Insert the line containing `addr` without counting a demand
    /// access (prefetch fill). Returns whether a dirty victim was
    /// evicted.
    pub fn fill(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let (set, tag) = self.index_and_tag(addr);
        let base = set * self.ways;
        let set_lines = &mut self.lines[base..base + self.ways];
        if let Some(line) = set_lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.used = self.tick;
            return false;
        }
        let victim = set_lines
            .iter_mut()
            .min_by_key(|l| if l.valid { l.used } else { 0 })
            .expect("ways > 0");
        let dirty = victim.valid && victim.dirty;
        if dirty {
            self.writebacks += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: false,
            used: self.tick,
        };
        dirty
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
