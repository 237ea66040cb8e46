//! Board SDRAM behind the eLink.
//!
//! A deliberately simple DRAM model: a shared-bandwidth data bus, a
//! fixed access latency, and a per-bank open-row policy (row hits skip
//! the activate/precharge cost). It is the *latency and shared
//! bandwidth* that shape the paper's FFBP results; detailed DDR timing
//! does not change who wins.

use desim::trace::{Tracer, Track};
use desim::{Cycle, FifoResource};
use faultsim::FaultState;

/// SDRAM timing/geometry parameters (cycles are in the *core* clock
/// domain of the attached chip model).
#[derive(Debug, Clone, Copy)]
pub struct SdramParams {
    /// Data bus bandwidth in bytes per core cycle.
    pub bytes_per_cycle: u64,
    /// Access latency on a row hit.
    pub row_hit_cycles: u64,
    /// Access latency on a row miss (activate + precharge).
    pub row_miss_cycles: u64,
    /// Number of DRAM banks.
    pub banks: usize,
    /// Bytes per row.
    pub row_bytes: u32,
}

impl Default for SdramParams {
    fn default() -> Self {
        SdramParams {
            // The eLink caps off-chip traffic at 8 GB/s (= 8 B/cycle at
            // 1 GHz); the DRAM itself is provisioned slightly wider so
            // the eLink, not the DRAM, is the steady-state bottleneck,
            // as on the real board.
            bytes_per_cycle: 16,
            row_hit_cycles: 20,
            row_miss_cycles: 60,
            banks: 8,
            row_bytes: 2048,
        }
    }
}

/// Result of one SDRAM access.
#[derive(Debug, Clone, Copy)]
pub struct SdramAccess {
    /// Cycle the data transfer completes.
    pub done: Cycle,
    /// Whether the access hit an open row.
    pub row_hit: bool,
    /// Latency component (before data transfer).
    pub latency: Cycle,
}

/// The SDRAM device model.
pub struct Sdram {
    params: SdramParams,
    bus: FifoResource,
    open_rows: Vec<Option<u32>>,
    accesses: u64,
    row_hits: u64,
    bytes: u64,
    tracer: Tracer,
    faults: FaultState,
}

impl Sdram {
    /// Build the device.
    ///
    /// # Panics
    /// If the geometry is degenerate.
    pub fn new(params: SdramParams) -> Sdram {
        assert!(
            params.banks > 0 && params.row_bytes > 0,
            "invalid SDRAM geometry"
        );
        Sdram {
            params,
            bus: FifoResource::per_units(1, params.bytes_per_cycle),
            open_rows: vec![None; params.banks],
            accesses: 0,
            row_hits: 0,
            bytes: 0,
            tracer: Tracer::disabled(),
            faults: FaultState::disabled(),
        }
    }

    /// Attach a tracer; timed accesses emit bus-occupancy spans and
    /// row-miss instants on [`Track::Sdram`].
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attach fault state; armed transient bit errors perturb
    /// subsequent accesses (one access per event).
    pub fn set_faults(&mut self, faults: FaultState) {
        self.faults = faults;
    }

    /// Extra latency when a transient bit error has armed at `at`: the
    /// device re-reads the row (precharge + activate + read again) and
    /// ECC corrects the data — the access is slower, never wrong.
    fn bit_error_penalty(&mut self, at: Cycle) -> Cycle {
        if self.faults.sdram_bit_error(at) {
            self.tracer
                .instant(Track::Sdram, "fault:sdram_bit_error", at);
            Cycle(self.params.row_miss_cycles)
        } else {
            Cycle::ZERO
        }
    }

    /// Parameters in use.
    pub fn params(&self) -> SdramParams {
        self.params
    }

    fn bank_and_row(&self, addr: u32) -> (usize, u32) {
        let row = addr / self.params.row_bytes;
        let bank = (row as usize) % self.params.banks;
        (bank, row)
    }

    /// Perform an access of `bytes` at `addr` starting at `at`.
    pub fn access(&mut self, at: Cycle, addr: u32, bytes: u64) -> SdramAccess {
        let (bank, row) = self.bank_and_row(addr);
        let row_hit = self.open_rows[bank] == Some(row);
        self.open_rows[bank] = Some(row);
        let latency = Cycle(if row_hit {
            self.params.row_hit_cycles
        } else {
            self.params.row_miss_cycles
        }) + self.bit_error_penalty(at);
        let r = self.bus.request(at + latency, bytes);
        if self.tracer.is_enabled() {
            self.tracer.span(Track::Sdram, "access", r.start, r.end);
            if !row_hit {
                self.tracer.instant(Track::Sdram, "row_miss", at);
            }
        }
        self.accesses += 1;
        self.row_hits += row_hit as u64;
        self.bytes += bytes;
        SdramAccess {
            done: r.end,
            row_hit,
            latency,
        }
    }

    /// Latency-only lookup for models that account bus time elsewhere
    /// (the eLink already serialises the data): returns the access
    /// latency for `addr` at time `at` and updates the open-row state.
    pub fn latency_of(&mut self, at: Cycle, addr: u32) -> Cycle {
        let (bank, row) = self.bank_and_row(addr);
        let row_hit = self.open_rows[bank] == Some(row);
        self.open_rows[bank] = Some(row);
        self.accesses += 1;
        self.row_hits += row_hit as u64;
        Cycle(if row_hit {
            self.params.row_hit_cycles
        } else {
            self.params.row_miss_cycles
        }) + self.bit_error_penalty(at)
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Fraction of accesses that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }

    /// Total bytes moved over the data bus.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Cycles the data bus has been reserved — the SDRAM's busy time,
    /// snapshotted by the power sampler at phase boundaries.
    pub fn busy_cycles(&self) -> Cycle {
        self.bus.busy_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_accesses_hit_open_row() {
        let mut d = Sdram::new(SdramParams::default());
        let first = d.access(Cycle(0), 0, 64);
        assert!(!first.row_hit);
        let second = d.access(first.done, 64, 64);
        assert!(second.row_hit);
        assert!(second.latency < first.latency);
        assert!(d.row_hit_rate() > 0.0);
    }

    #[test]
    fn strided_accesses_miss_rows() {
        let mut d = Sdram::new(SdramParams::default());
        let row = d.params().row_bytes;
        let banks = d.params().banks as u32;
        let mut t = Cycle(0);
        // Stride of banks*row_bytes keeps hitting the same bank with a
        // different row every time: all misses.
        for i in 0..10u32 {
            let a = d.access(t, i * row * banks, 8);
            assert!(!a.row_hit);
            t = a.done;
        }
        assert_eq!(d.row_hit_rate(), 0.0);
    }

    #[test]
    fn bus_bandwidth_serialises_large_transfers() {
        let p = SdramParams::default();
        let mut d = Sdram::new(p);
        let a = d.access(Cycle(0), 0, 1 << 20); // 1 MB
        let min_cycles = (1u64 << 20) / p.bytes_per_cycle;
        assert!(a.done.raw() >= min_cycles);
    }

    #[test]
    fn concurrent_requests_share_bus() {
        let mut d = Sdram::new(SdramParams::default());
        let a = d.access(Cycle(0), 0, 4096);
        let b = d.access(Cycle(0), 1 << 16, 4096);
        assert!(b.done > a.done);
    }

    #[test]
    fn latency_only_mode_tracks_rows() {
        let mut d = Sdram::new(SdramParams::default());
        let l1 = d.latency_of(Cycle(0), 0);
        let l2 = d.latency_of(Cycle(0), 8);
        assert!(l2 < l1);
        assert_eq!(d.accesses(), 2);
    }

    #[test]
    fn bit_error_fault_slows_exactly_one_access() {
        use faultsim::{FaultEvent, FaultPlan};
        let p = SdramParams::default();
        let mut d = Sdram::new(p);
        let faults = FaultState::from_plan(&FaultPlan::from_events(
            0,
            vec![FaultEvent::SdramBitError { at: Cycle(100) }],
        ));
        d.set_faults(faults.clone());
        // Before the arming cycle: untouched.
        let early = d.latency_of(Cycle(50), 0);
        assert_eq!(early, Cycle(p.row_miss_cycles));
        // First access at/after the arming cycle pays one device
        // re-read on top of its ordinary latency.
        let hit = d.latency_of(Cycle(200), 8);
        assert_eq!(hit, Cycle(p.row_hit_cycles + p.row_miss_cycles));
        // Exactly once.
        let after = d.latency_of(Cycle(300), 16);
        assert_eq!(after, Cycle(p.row_hit_cycles));
        assert_eq!(faults.totals().faults_injected, 1);
    }
}
