//! A core's local store: four single-ported 8 KB SRAM banks.
//!
//! The Epiphany local store sustains one access per bank per cycle; the
//! core, the DMA engine and inbound mesh writes contend for bank ports.
//! The FFBP mapping in the paper places prefetched subaperture data in
//! the two *upper* banks precisely so DMA refill and compute touch
//! different banks.

use desim::trace::{Tracer, Track};
use desim::{Cycle, FifoResource, Reservation};

/// Local-store geometry.
#[derive(Debug, Clone, Copy)]
pub struct SramParams {
    /// Number of banks (E16G3: 4).
    pub banks: usize,
    /// Bytes per bank (E16G3: 8 KB).
    pub bank_bytes: u32,
    /// Port width in bytes per cycle per bank (E16G3: 8 — a double word).
    pub port_bytes_per_cycle: u64,
}

impl Default for SramParams {
    fn default() -> Self {
        SramParams {
            banks: 4,
            bank_bytes: 8 * 1024,
            port_bytes_per_cycle: 8,
        }
    }
}

impl SramParams {
    /// Whether a buffer occupying `[offset, offset + bytes)` of one
    /// bank fits inside that bank (the static capacity invariant the
    /// mapping analyzer checks declarations against).
    pub fn fits_bank(&self, offset: u32, bytes: u32) -> bool {
        offset
            .checked_add(bytes)
            .is_some_and(|end| end <= self.bank_bytes)
    }
}

/// One core's banked local store.
pub struct LocalStore {
    params: SramParams,
    ports: Vec<FifoResource>,
    conflicts: u64,
    tracer: Tracer,
    track: Track,
}

impl LocalStore {
    /// Build a local store.
    ///
    /// # Panics
    /// If the parameters describe zero banks or zero-size banks.
    pub fn new(params: SramParams) -> LocalStore {
        assert!(
            params.banks > 0 && params.bank_bytes > 0,
            "invalid SRAM geometry"
        );
        let ports = (0..params.banks)
            .map(|_| FifoResource::per_units(1, params.port_bytes_per_cycle))
            .collect();
        LocalStore {
            params,
            ports,
            conflicts: 0,
            tracer: Tracer::disabled(),
            track: Track::Core(0),
        }
    }

    /// Attach a tracer; bank conflicts emit an instant on `track`
    /// (the owning core's track).
    pub fn set_tracer(&mut self, tracer: Tracer, track: Track) {
        self.tracer = tracer;
        self.track = track;
    }

    /// Geometry in use.
    pub fn params(&self) -> SramParams {
        self.params
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u32 {
        self.params.banks as u32 * self.params.bank_bytes
    }

    /// Bank index holding local-store `offset`.
    ///
    /// # Panics
    /// If `offset` is outside the store.
    pub fn bank_of(&self, offset: u32) -> usize {
        assert!(
            offset < self.capacity(),
            "offset {offset:#x} outside local store"
        );
        (offset / self.params.bank_bytes) as usize
    }

    /// Reserve `bytes` of port time on the bank holding `offset`,
    /// starting at `at`. Returns the busy interval; a queued start means
    /// a bank conflict occurred.
    pub fn access(&mut self, at: Cycle, offset: u32, bytes: u64) -> Reservation {
        let bank = self.bank_of(offset);
        self.access_bank(at, bank, bytes)
    }

    /// Reserve port time on an explicit bank (used by DMA descriptors
    /// that stream through a whole bank).
    pub fn access_bank(&mut self, at: Cycle, bank: usize, bytes: u64) -> Reservation {
        let r = self.ports[bank].request(at, bytes);
        if r.start > at {
            self.conflicts += 1;
            self.tracer.instant(self.track, "bank_conflict", at);
        }
        r
    }

    /// Bank conflicts observed so far.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_matches_e16g3() {
        let s = LocalStore::new(SramParams::default());
        assert_eq!(s.capacity(), 32 * 1024);
        assert_eq!(s.bank_of(0), 0);
        assert_eq!(s.bank_of(8 * 1024), 1);
        assert_eq!(s.bank_of(16 * 1024), 2);
        assert_eq!(s.bank_of(32 * 1024 - 1), 3);
    }

    #[test]
    fn fits_bank_checks_the_interval_end() {
        let p = SramParams::default();
        assert!(p.fits_bank(0, 8 * 1024));
        assert!(p.fits_bank(184, 8008)); // a paper beam after a header
        assert!(!p.fits_bank(185, 8008));
        assert!(!p.fits_bank(0, 8 * 1024 + 1));
        assert!(!p.fits_bank(u32::MAX, 8)); // offset overflow is a miss
    }

    #[test]
    fn same_bank_conflicts_different_banks_dont() {
        let mut s = LocalStore::new(SramParams::default());
        let a = s.access(Cycle(0), 0, 64);
        let b = s.access(Cycle(0), 4, 64); // same bank 0
        assert!(b.start >= a.end);
        assert_eq!(s.conflicts(), 1);

        let mut s2 = LocalStore::new(SramParams::default());
        let a = s2.access(Cycle(0), 0, 64);
        let c = s2.access(Cycle(0), 8 * 1024, 64); // bank 1
        assert_eq!(a.start, c.start);
        assert_eq!(s2.conflicts(), 0);
    }

    #[test]
    fn port_width_sets_service_time() {
        let mut s = LocalStore::new(SramParams::default());
        let r = s.access(Cycle(0), 0, 80);
        assert_eq!(r.hold(), Cycle(10)); // 80 B at 8 B/cycle
    }

    #[test]
    fn access_bank_targets_explicit_bank() {
        let mut s = LocalStore::new(SramParams::default());
        s.access_bank(Cycle(0), 2, 800);
        // Bank 2 is held for 100 cycles; bank 0 is free.
        assert_eq!(s.access_bank(Cycle(0), 2, 8).start, Cycle(100));
        assert_eq!(s.access_bank(Cycle(0), 0, 8).start, Cycle::ZERO);
    }

    #[test]
    #[should_panic(expected = "outside local store")]
    fn out_of_range_offset_panics() {
        let mut s = LocalStore::new(SramParams::default());
        let _ = s.access(Cycle(0), 32 * 1024, 4);
    }
}
