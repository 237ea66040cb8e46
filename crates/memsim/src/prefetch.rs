//! A sequential stream prefetcher.
//!
//! Modern Intel cores detect ascending/descending line-granular streams
//! and pull lines ahead of the demand stream; the paper names this
//! ("prefetching mechanisms combined with three levels of caches") as
//! the reason the i7 beats a single Epiphany core on FFBP. The model
//! keeps a small table of recent streams; once a stream is confirmed by
//! `confirm_after` consecutive line accesses it prefetches `depth`
//! lines ahead.

/// The lines one [`StreamPrefetcher::observe`] asks for: `count` lines
/// stepping by `dir` away from the observed `line`. Iterates them
/// nearest first; an access that confirms nothing yields none.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetchRun {
    line: u64,
    dir: i64,
    count: u32,
}

impl Iterator for PrefetchRun {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        self.count = self.count.checked_sub(1)?;
        self.line = self.line.wrapping_add_signed(self.dir);
        Some(self.line)
    }
}

/// Stream table slots: a match is one compare of this many words.
const SLOTS: usize = 16;

/// `next_line` of an empty slot: a line is at most `u64::MAX >> 1`.
const EMPTY: u64 = u64::MAX;

/// Stream prefetcher over line indices (`addr / line_bytes` is done by
/// the caller's hierarchy so the prefetcher is line-size agnostic).
///
/// Every table has [`SLOTS`] entries, those beyond its size [`EMPTY`]:
/// a match is one branch-free compare of all of `next_line`.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    /// Next expected line index, or [`EMPTY`].
    next_line: [u64; SLOTS],
    /// +1 or -1 line per access.
    dir: [i64; SLOTS],
    /// Consecutive confirmations so far.
    hits: [u32; SLOTS],
    /// The table's slots, one per nibble, least recently used lowest.
    /// Slots used by the same access (the two hypotheses of one
    /// allocation, or the never-used ones) are in index order.
    lru: u64,
    /// Shift of the most recently used nibble: `4 * (table_size - 1)`.
    top: u32,
    confirm_after: u32,
    depth: u32,
    issued: u64,
}

impl StreamPrefetcher {
    /// `table_size` concurrent streams, confirmed after `confirm_after`
    /// sequential accesses, prefetching `depth` lines ahead.
    ///
    /// # Panics
    /// If `table_size` is 0 or above 16.
    pub fn new(table_size: usize, confirm_after: u32, depth: u32) -> StreamPrefetcher {
        assert!(
            (1..=SLOTS).contains(&table_size),
            "need between 1 and {SLOTS} stream slots (got {table_size})"
        );
        let top = 4 * (table_size as u32 - 1);
        StreamPrefetcher {
            next_line: [EMPTY; SLOTS],
            dir: [0; SLOTS],
            hits: [0; SLOTS],
            lru: 0xfedc_ba98_7654_3210 & (u64::MAX >> (60 - top)),
            top,
            confirm_after,
            depth,
            issued: 0,
        }
    }

    /// Intel-like defaults: 16 streams, confirm on the 2nd access,
    /// run 4 lines ahead.
    pub fn intel_like() -> StreamPrefetcher {
        StreamPrefetcher::new(16, 2, 4)
    }

    /// Observe a demand access to `line`; returns the lines to prefetch
    /// (possibly none).
    ///
    /// A repeat access to the line a stream has just moved past matches
    /// nothing and allocates a duplicate hypothesis, which later
    /// confirms like any other; see DESIGN.md §7.
    pub fn observe(&mut self, line: u64) -> PrefetchRun {
        debug_assert_ne!(line, EMPTY, "the line that marks an empty slot");
        // Match the first stream expecting this line.
        let expecting = (0..SLOTS).fold(0u32, |m, slot| {
            m | u32::from(self.next_line[slot] == line) << slot
        });
        if expecting != 0 {
            let slot = expecting.trailing_zeros() as usize;
            let dir = self.dir[slot];
            self.hits[slot] += 1;
            self.next_line[slot] = line.wrapping_add_signed(dir);
            // Move `slot` to the most recent end; its nibble is the
            // lowest zero one of `x`.
            const ONES: u64 = 0x1111_1111_1111_1111;
            let x = self.lru ^ (slot as u64 * ONES);
            let at = (x.wrapping_sub(ONES) & !x & ONES << 3).trailing_zeros() & !3;
            let below = (1u64 << at) - 1;
            self.lru = (self.lru & below) | (self.lru >> 4 & !below) | (slot as u64) << self.top;
            if self.hits[slot] < self.confirm_after {
                return PrefetchRun::default();
            }
            self.issued += u64::from(self.depth);
            return PrefetchRun {
                line,
                dir,
                count: self.depth,
            };
        }
        // New stream hypotheses in both directions: ascending into the
        // least recently used slot, descending into the next least.
        // Line 0 has nothing below it, and with one slot the descending
        // hypothesis replaces the ascending one.
        let taken = if line > 0 && self.top > 0 { 2 } else { 1 };
        let ascending = self.lru & 0xf;
        let descending = self.lru >> (4 * (taken - 1)) & 0xf;
        self.allocate(ascending as usize, line.wrapping_add(1), 1);
        if line > 0 {
            self.allocate(descending as usize, line - 1, -1);
        }
        // Both are now the most recent, listed in index order.
        let used = if taken == 2 {
            ascending.min(descending) | ascending.max(descending) << 4
        } else {
            ascending
        };
        self.lru = self.lru >> (4 * taken) | used << (self.top + 4 - 4 * taken);
        PrefetchRun::default()
    }

    fn allocate(&mut self, slot: usize, next_line: u64, dir: i64) {
        self.next_line[slot] = next_line;
        self.dir[slot] = dir;
        self.hits[slot] = 1;
    }

    /// Total prefetches issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_stream_confirms_and_prefetches() {
        let mut p = StreamPrefetcher::new(4, 2, 4);
        // Allocates (counts as the 1st access).
        assert_eq!(p.observe(100).count(), 0);
        // 2nd sequential access confirms the stream and prefetches.
        assert!(p.observe(101).eq(102..=105));
        assert!(p.observe(102).eq(103..=106));
    }

    #[test]
    fn descending_stream_detected() {
        let mut p = StreamPrefetcher::new(4, 2, 2);
        p.observe(200);
        p.observe(199);
        assert!(p.observe(198).eq([197, 196]));
    }

    #[test]
    fn random_accesses_never_confirm() {
        let mut p = StreamPrefetcher::new(8, 2, 4);
        for line in [5u64, 900, 13, 77, 4096, 2, 555, 31] {
            assert_eq!(p.observe(line).count(), 0);
        }
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn confirmed_stream_keeps_prefetching() {
        let mut p = StreamPrefetcher::new(4, 2, 1);
        p.observe(0);
        p.observe(1);
        let mut total = 0;
        for line in 2..50u64 {
            total += p.observe(line).count();
        }
        assert_eq!(total, 48);
    }

    #[test]
    fn same_line_repeats_allocate_duplicate_streams_that_all_confirm() {
        // Eight 8-byte accesses per 64-byte line. The first access to a
        // line advances the stream that expected it; the other seven
        // match nothing and each allocate another stream expecting the
        // next line. Every access to that next line then finds a
        // duplicate of its own to confirm, so prefetches are issued
        // four per access, not four per line. Only line 0, which no
        // stream expected, is free. This is part of the pinned Table I
        // denominator (DESIGN.md §7): changing it moves
        // `sim.cycles.ffbp_ref.refcpu`.
        let mut p = StreamPrefetcher::intel_like();
        for access in 0..8u64 {
            assert_eq!(p.observe(access * 8 / 64).count(), 0);
        }
        for access in 8..4_000_000u64 {
            let line = access * 8 / 64;
            assert!(p.observe(line).eq(line + 1..=line + 4), "access {access}");
        }
        assert_eq!(p.issued(), 15_999_968);
    }

    #[test]
    fn table_replacement_is_lru() {
        let mut p = StreamPrefetcher::new(2, 2, 1);
        // Each observe of a fresh line allocates up to 2 hypotheses into
        // a 2-slot table, evicting older streams; just ensure no panic
        // and no spurious prefetch.
        for line in (0..20u64).map(|i| i * 1000) {
            assert_eq!(p.observe(line).count(), 0);
        }
    }
}
