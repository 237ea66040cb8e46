//! The single-core execution model.

use desim::record::{PhaseRecord, RunRecord};
use desim::stats::{Counters, PhaseTimeline};
use desim::{Cycle, OpCounts, TimeSpan};
use memsim::MemoryHierarchy;

use crate::params::RefCpuParams;

/// One core of the reference CPU.
pub struct RefCpu {
    params: RefCpuParams,
    hierarchy: MemoryHierarchy,
    cycles: f64,
    ops: OpCounts,
    mem_stall_cycles: f64,
    /// Each phase with the core's counters and memory-stall cycles at
    /// both ends.
    phases: PhaseTimeline<(Counters, f64)>,
}

impl RefCpu {
    /// Fresh core with cold caches.
    ///
    /// # Panics
    /// If `mlp` is not finite and positive (every stall is divided by
    /// it), or the hierarchy is rejected by [`MemoryHierarchy::new`].
    pub fn new(params: RefCpuParams) -> RefCpu {
        assert!(
            params.mlp.is_finite() && params.mlp > 0.0,
            "mlp must be finite and positive (got {})",
            params.mlp
        );
        RefCpu {
            hierarchy: MemoryHierarchy::new(params.hierarchy),
            params,
            cycles: 0.0,
            ops: OpCounts::default(),
            mem_stall_cycles: 0.0,
            phases: PhaseTimeline::new(),
        }
    }

    /// Parameters in use.
    pub fn params(&self) -> &RefCpuParams {
        &self.params
    }

    /// Execute a compute region. Loads/stores here are priced as issue
    /// slots (they hit the L1 as far as the pipeline is concerned);
    /// *miss* penalties are charged by [`RefCpu::mem_read`] /
    /// [`RefCpu::mem_write`] on the addresses the kernel actually
    /// touches.
    pub fn compute(&mut self, ops: &OpCounts) {
        self.ops.add(ops);
        // No FMA on Westmere: an FMA lowers to multiply + add.
        let instrs = ops.instrs_no_fma();
        let special = ops.sqrts * self.params.sqrt_cycles
            + ops.divs * self.params.div_cycles
            + ops.trigs * self.params.trig_cycles;
        self.cycles += instrs as f64 / self.params.sustained_ipc + special as f64;
    }

    fn mem(&mut self, addr: u64, bytes: u64, write: bool) {
        let latency = self.hierarchy.access_range(addr, bytes, write);
        let l1 = self.params.hierarchy.l1_cycles;
        // L1-hit time is already covered by the issue-slot pricing in
        // `compute`; only the portion beyond L1, divided by the MLP the
        // out-of-order window extracts, stalls the core. An L1 hit
        // would add `0.0 / mlp` = +0.0 to both accumulators, which
        // changes neither (`mlp` is finite and positive).
        if latency <= l1 {
            return;
        }
        let stall = (latency - l1) as f64 / self.params.mlp;
        self.mem_stall_cycles += stall;
        self.cycles += stall;
    }

    /// Demand read of `bytes` at `addr`.
    pub fn mem_read(&mut self, addr: u64, bytes: u64) {
        self.mem(addr, bytes, false);
    }

    /// Demand write of `bytes` at `addr` (write-allocate).
    pub fn mem_write(&mut self, addr: u64, bytes: u64) {
        self.mem(addr, bytes, true);
    }

    /// Cycles consumed so far.
    pub fn elapsed(&self) -> Cycle {
        Cycle(self.cycles.ceil() as u64)
    }

    /// Elapsed wall time.
    pub fn elapsed_span(&self) -> TimeSpan {
        TimeSpan::new(self.elapsed(), self.params.clock)
    }

    /// Cycles lost to memory stalls (beyond-L1, MLP-adjusted).
    pub fn mem_stall_fraction(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.mem_stall_cycles / self.cycles
        }
    }

    /// The cache hierarchy (statistics).
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// Executed operation totals as named counters (the record shape).
    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        c.add("fpu_instr", self.ops.flops + 2 * self.ops.fmas);
        c.add("ialu_instr", self.ops.ialu);
        c.add("loads", self.ops.loads);
        c.add("stores", self.ops.stores);
        c.add("sqrts", self.ops.sqrts);
        c.add("divs", self.ops.divs);
        c.add("trigs", self.ops.trigs);
        c.add("dram_access", self.hierarchy.dram_accesses());
        c
    }

    /// Open a named observation phase at the current cycle cursor.
    pub fn phase_begin(&mut self, name: &str) {
        let seen = (self.counters(), self.mem_stall_cycles);
        self.phases.begin(name, self.elapsed(), seen);
    }

    /// Attach a gauge to the open phase.
    pub fn phase_metric(&mut self, key: &str, value: f64) {
        self.phases.metric(key, value);
    }

    /// Close the open phase at the current cycle cursor.
    pub fn phase_end(&mut self) {
        let seen = (self.counters(), self.mem_stall_cycles);
        self.phases.end(self.elapsed(), seen);
    }

    /// Finish the run into a record. Energy follows the paper's
    /// methodology — datasheet power × time — so the modelled breakdown
    /// stays zero and [`RunRecord::energy_j`] falls back to `power_w`.
    pub fn report(&self, label: &str) -> RunRecord {
        assert!(
            !self.phases.is_open(),
            "cannot report with a phase still open"
        );
        let mut record = RunRecord::new(label, self.elapsed_span());
        record.platform = "refcpu".to_string();
        record.power_w = self.params.power_w;
        record.counters = self.counters();
        record.set_metric("mem_stall_fraction", self.mem_stall_fraction());
        record.phases = self
            .phases
            .spans()
            .iter()
            .map(|span| {
                let ((counters0, stall0), (counters, stall)) = (&span.opened, &span.closed);
                let grown = counters.since(counters0);
                let measured = std::iter::once(("mem_stall_cycles", stall - stall0))
                    .chain(grown.iter().map(|(name, n)| (name, n as f64)));
                let mut phase = PhaseRecord::of_span(span, self.params.clock, measured);
                phase.energy_j = self.params.power_w * phase.time_ms * 1e-3;
                phase
            })
            .collect();
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> RefCpu {
        RefCpu::new(RefCpuParams::default())
    }

    #[test]
    fn compute_prices_ipc_and_specials() {
        let mut c = cpu();
        c.compute(&OpCounts {
            flops: 180,
            ..OpCounts::default()
        });
        assert_eq!(c.elapsed(), Cycle(100)); // 180 / 1.8
        let mut c2 = cpu();
        c2.compute(&OpCounts {
            sqrts: 10,
            ..OpCounts::default()
        });
        assert_eq!(c2.elapsed(), Cycle(10 * c2.params().sqrt_cycles));
    }

    #[test]
    fn fma_costs_two_instructions() {
        let mut a = cpu();
        a.compute(&OpCounts {
            fmas: 90,
            ..OpCounts::default()
        });
        let mut b = cpu();
        b.compute(&OpCounts {
            flops: 90,
            ..OpCounts::default()
        });
        assert_eq!(a.elapsed().raw(), 2 * b.elapsed().raw());
    }

    #[test]
    fn cached_reads_are_nearly_free_cold_reads_stall() {
        let mut c = cpu();
        c.mem_read(0x1000, 8);
        let cold = c.elapsed();
        c.mem_read(0x1000, 8);
        let warm = c.elapsed() - cold;
        assert!(warm.raw() * 10 < cold.raw(), "warm {warm} vs cold {cold}");
    }

    #[test]
    fn sequential_streams_beat_random_access() {
        let mut seq = cpu();
        for i in 0..10_000u64 {
            seq.mem_read(i * 8, 8);
        }
        let mut rnd = cpu();
        let mut x = 99u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            rnd.mem_read((x >> 16) % (64 << 20), 8);
        }
        assert!(
            seq.elapsed().raw() * 3 < rnd.elapsed().raw(),
            "prefetcher should make streaming much cheaper: seq={}, rnd={}",
            seq.elapsed(),
            rnd.elapsed()
        );
    }

    #[test]
    fn mem_stall_fraction_reflects_traffic() {
        let mut c = cpu();
        c.compute(&OpCounts {
            flops: 1000,
            ..OpCounts::default()
        });
        assert_eq!(c.mem_stall_fraction(), 0.0);
        let mut x = 7u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            c.mem_read((x >> 12) % (128 << 20), 8);
        }
        assert!(c.mem_stall_fraction() > 0.5);
    }

    #[test]
    fn report_energy_uses_datasheet_power() {
        let mut c = cpu();
        c.compute(&OpCounts {
            flops: 2_670_000,
            ..OpCounts::default()
        });
        let r = c.report("ref");
        // 2.67e6/1.8 cycles at 2.67 GHz = 0.5556 ms; energy = 17.5 W x t.
        assert!((r.millis() - 0.5556).abs() < 0.01);
        assert!((r.energy_j() - 17.5 * r.elapsed.seconds()).abs() < 1e-12);
        assert_eq!(r.platform, "refcpu");
        assert_eq!(r.counters.get("fpu_instr"), 2_670_000);
        assert!(r.metric("mem_stall_fraction").is_some());
    }

    #[test]
    fn phases_carry_datasheet_energy_and_op_deltas() {
        let mut c = cpu();
        c.phase_begin("pulse_pair");
        c.compute(&OpCounts {
            flops: 1800,
            ..OpCounts::default()
        });
        c.phase_end();
        c.phase_begin("pulse_pair");
        c.compute(&OpCounts {
            flops: 3600,
            ..OpCounts::default()
        });
        c.phase_end();
        let r = c.report("phased");
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].metrics.get("fpu_instr"), Some(&1800.0));
        assert_eq!(r.phases[1].metrics.get("fpu_instr"), Some(&3600.0));
        let total: f64 = r.phases.iter().map(|p| p.energy_j).sum();
        assert!((total - r.energy_j()).abs() < 1e-9 * r.energy_j().max(1e-12));
    }

    #[test]
    fn mlp_must_be_finite_and_positive() {
        for mlp in [0.0, -4.0, f64::NAN, f64::INFINITY] {
            let built = std::panic::catch_unwind(|| {
                RefCpu::new(RefCpuParams {
                    mlp,
                    ..RefCpuParams::default()
                })
            });
            assert!(built.is_err(), "mlp {mlp} accepted");
        }
    }
}
