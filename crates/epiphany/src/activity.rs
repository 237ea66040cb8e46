//! Slot-indexed per-core activity counters.
//!
//! The chip's hot paths bump operation counters on every modelled
//! instruction, transfer and stall. Doing that through the string-keyed
//! [`Counters`] map costs a `BTreeMap` lookup (several string compares)
//! per event; this module keeps the per-core counts in a flat array
//! indexed by [`slot`] constants and only materialises a `Counters`
//! map in reports.
//!
//! A `touched` bitmask preserves the map's presence semantics exactly:
//! `Counters::add(key, 0)` inserts the key (it appears in the record's
//! JSON as `0`), so a slot written with zero must still be emitted.
//! Because `Counters` sorts its keys, the order slots are emitted in is
//! irrelevant to the serialised output — materialised records are
//! byte-identical to the per-event map updates they replace.

use desim::stats::Counters;

/// Counter slots, one per per-core counter key the chip maintains.
pub mod slot {
    /// `barrier`
    pub const BARRIER: usize = 0;
    /// `dma_2d`
    pub const DMA_2D: usize = 1;
    /// `dma_bytes`
    pub const DMA_BYTES: usize = 2;
    /// `dma_wait`
    pub const DMA_WAIT: usize = 3;
    /// `ext_read`
    pub const EXT_READ: usize = 4;
    /// `ext_read_bytes`
    pub const EXT_READ_BYTES: usize = 5;
    /// `ext_write`
    pub const EXT_WRITE: usize = 6;
    /// `ext_write_bytes`
    pub const EXT_WRITE_BYTES: usize = 7;
    /// `flag_polls`
    pub const FLAG_POLLS: usize = 8;
    /// `flag_wait`
    pub const FLAG_WAIT: usize = 9;
    /// `fpu_instr`
    pub const FPU_INSTR: usize = 10;
    /// `host_load`
    pub const HOST_LOAD: usize = 11;
    /// `host_load_bytes`
    pub const HOST_LOAD_BYTES: usize = 12;
    /// `ialu_ls_instr`
    pub const IALU_LS_INSTR: usize = 13;
    /// `local_access`
    pub const LOCAL_ACCESS: usize = 14;
    /// `remote_read`
    pub const REMOTE_READ: usize = 15;
    /// `remote_read_bytes`
    pub const REMOTE_READ_BYTES: usize = 16;
    /// `remote_write`
    pub const REMOTE_WRITE: usize = 17;
    /// `remote_write_bytes`
    pub const REMOTE_WRITE_BYTES: usize = 18;
    /// Number of slots.
    pub const COUNT: usize = 19;
    /// Counter key of each slot.
    pub const NAMES: [&str; COUNT] = [
        "barrier",
        "dma_2d",
        "dma_bytes",
        "dma_wait",
        "ext_read",
        "ext_read_bytes",
        "ext_write",
        "ext_write_bytes",
        "flag_polls",
        "flag_wait",
        "fpu_instr",
        "host_load",
        "host_load_bytes",
        "ialu_ls_instr",
        "local_access",
        "remote_read",
        "remote_read_bytes",
        "remote_write",
        "remote_write_bytes",
    ];
}

/// One core's activity counters: a flat array plus the bitmask of
/// slots that have been written (even with zero).
#[derive(Debug, Clone)]
pub struct CoreCounters {
    vals: [u64; slot::COUNT],
    touched: u32,
}

impl Default for CoreCounters {
    fn default() -> CoreCounters {
        CoreCounters::new()
    }
}

impl CoreCounters {
    /// All-zero, nothing touched.
    pub fn new() -> CoreCounters {
        CoreCounters {
            vals: [0; slot::COUNT],
            touched: 0,
        }
    }

    /// Add `value` to `s` (marks the slot even when `value` is zero).
    #[inline]
    pub fn add(&mut self, s: usize, value: u64) {
        self.vals[s] += value;
        self.touched |= 1 << s;
    }

    /// Add one to `s`.
    #[inline]
    pub fn bump(&mut self, s: usize) {
        self.add(s, 1);
    }

    /// Current value of `s` (zero if never touched).
    #[inline]
    pub fn get(&self, s: usize) -> u64 {
        self.vals[s]
    }

    /// The sum over `cores`: values add, and a slot is touched if any
    /// core touched it.
    pub fn sum<'a>(cores: impl IntoIterator<Item = &'a CoreCounters>) -> CoreCounters {
        let mut total = CoreCounters::new();
        for c in cores {
            for (t, v) in total.vals.iter_mut().zip(&c.vals) {
                *t += v;
            }
            total.touched |= c.touched;
        }
        total
    }

    /// Named growth of every slot since an `earlier` snapshot of the
    /// same accumulator, omitting zero growth.
    pub fn since<'a>(
        &'a self,
        earlier: &'a CoreCounters,
    ) -> impl Iterator<Item = (&'static str, u64)> + 'a {
        (0..slot::COUNT).filter_map(move |s| {
            let grown = self.vals[s] - earlier.vals[s];
            (grown > 0).then_some((slot::NAMES[s], grown))
        })
    }

    /// Emit every touched slot into `out` (adding to whatever is
    /// already there). Untouched slots stay absent, matching the keys
    /// a per-event `Counters` would have accumulated.
    pub fn merge_into(&self, out: &mut Counters) {
        for s in 0..slot::COUNT {
            if self.touched & (1 << s) != 0 {
                out.add(slot::NAMES[s], self.vals[s]);
            }
        }
    }

    /// Materialise as a fresh string-keyed map.
    pub fn to_counters(&self) -> Counters {
        let mut out = Counters::new();
        self.merge_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(c: &Counters) -> Vec<(&str, u64)> {
        c.iter().collect()
    }

    #[test]
    fn slot_names_are_sorted_and_distinct() {
        // `Counters` is a sorted map, so keeping NAMES sorted makes the
        // slot order line up with serialisation order (not required for
        // correctness, but cheap to keep tidy).
        for w in slot::NAMES.windows(2) {
            assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn zero_adds_preserve_key_presence() {
        let mut c = CoreCounters::new();
        c.add(slot::FPU_INSTR, 0);
        c.bump(slot::BARRIER);
        let m = c.to_counters();
        assert!(m.contains("fpu_instr"), "zero add must still emit the key");
        assert_eq!(m.get("fpu_instr"), 0);
        assert_eq!(m.get("barrier"), 1);
        assert!(
            !m.contains("ext_read"),
            "untouched slots must stay absent from the map"
        );
    }

    #[test]
    fn materialisation_matches_a_per_event_map() {
        let mut fast = CoreCounters::new();
        let mut slow = Counters::new();
        for &(s, v) in &[
            (slot::EXT_READ, 1),
            (slot::EXT_READ_BYTES, 8),
            (slot::EXT_READ, 1),
            (slot::EXT_READ_BYTES, 0),
            (slot::REMOTE_WRITE_BYTES, 4096),
        ] {
            fast.add(s, v);
            slow.add(slot::NAMES[s], v);
        }
        assert_eq!(pairs(&fast.to_counters()), pairs(&slow));
    }

    #[test]
    fn merge_into_accumulates_across_cores() {
        let mut a = CoreCounters::new();
        let mut b = CoreCounters::new();
        a.add(slot::FPU_INSTR, 10);
        b.add(slot::FPU_INSTR, 5);
        b.bump(slot::BARRIER);
        let mut merged = Counters::new();
        a.merge_into(&mut merged);
        b.merge_into(&mut merged);
        assert_eq!(merged.get("fpu_instr"), 15);
        assert_eq!(merged.get("barrier"), 1);
    }

    #[test]
    fn sum_and_since_agree_with_the_materialised_maps() {
        let mut a = CoreCounters::new();
        let mut b = CoreCounters::new();
        a.add(slot::FPU_INSTR, 10);
        a.add(slot::EXT_READ, 0);
        b.add(slot::FPU_INSTR, 5);
        b.bump(slot::BARRIER);
        let before = CoreCounters::sum([&a, &b]);
        let mut merged = Counters::new();
        a.merge_into(&mut merged);
        b.merge_into(&mut merged);
        assert_eq!(pairs(&before.to_counters()), pairs(&merged));

        b.add(slot::FPU_INSTR, 7);
        b.add(slot::DMA_BYTES, 0);
        let after = CoreCounters::sum([&a, &b]);
        let grown: Vec<_> = after.since(&before).collect();
        assert_eq!(grown, [("fpu_instr", 7)], "zero growth is omitted");
        let delta = after.to_counters().since(&before.to_counters());
        assert_eq!(pairs(&delta), grown);
    }
}
