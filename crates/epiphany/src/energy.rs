//! Activity-based energy accounting.
//!
//! The paper reports "estimated power" straight from the datasheets
//! (2 W for the chip, 17.5 W for one i7 core); this model additionally
//! decomposes the Epiphany side into per-component contributions so the
//! ablation benches can attribute energy to compute, fabric, eLink,
//! SDRAM and leakage. With fine-grained clock gating, idle cores cost
//! only static power — dynamic energy follows the operation counters.

use crate::activity::slot;
use crate::chip::Chip;
use crate::params::EpiphanyParams;

/// Joules by component — the shared record type, so chip reports embed
/// the breakdown directly.
pub use desim::record::EnergyRecord as EnergyBreakdown;

/// Prices a chip's activity counters.
pub struct EnergyModel {
    params: EpiphanyParams,
}

impl EnergyModel {
    /// Model with the chip's parameters.
    pub fn new(params: &EpiphanyParams) -> EnergyModel {
        EnergyModel { params: *params }
    }

    /// Evaluate the breakdown for everything `chip` has executed.
    pub fn evaluate(&self, chip: &Chip) -> EnergyBreakdown {
        let p = &self.params;
        let pj = 1e-12;

        let mut compute = 0.0;
        let mut sram = 0.0;
        let mut elink_bytes = 0u64;
        let mut sdram_bytes = 0u64;
        for core in 0..chip.cores() {
            // Slot-indexed reads: this runs at every phase boundary,
            // so it must not materialise the string-keyed map.
            let c = chip.activity(core);
            compute += c.get(slot::FPU_INSTR) as f64 * p.pj_per_flop
                + c.get(slot::IALU_LS_INSTR) as f64 * p.pj_per_ialu;
            sram += c.get(slot::LOCAL_ACCESS) as f64 * p.pj_per_local_access;
            let offchip =
                c.get(slot::EXT_READ_BYTES) + c.get(slot::EXT_WRITE_BYTES) + c.get(slot::DMA_BYTES);
            elink_bytes += offchip;
            sdram_bytes += offchip;
        }

        let mesh = chip.fabric().total_byte_hops() as f64 * p.pj_per_mesh_byte_hop;

        let seconds = chip.elapsed_span().seconds();
        let static_j = (p.static_w_per_core * chip.cores() as f64 + p.static_w_chip) * seconds;

        EnergyBreakdown {
            compute_j: compute * pj,
            sram_j: sram * pj,
            mesh_j: mesh * pj,
            elink_j: elink_bytes as f64 * p.pj_per_elink_byte * pj,
            sdram_j: sdram_bytes as f64 * p.pj_per_sdram_byte * pj,
            static_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::OpCounts;
    use memsim::GlobalAddr;

    #[test]
    fn compute_dominates_for_local_kernels() {
        let mut chip = Chip::e16g3(EpiphanyParams::default());
        chip.compute(
            0,
            &OpCounts {
                fmas: 1_000_000,
                loads: 500_000,
                ..OpCounts::default()
            },
        );
        let e = chip.energy();
        assert!(e.compute_j > 0.0);
        assert!(e.elink_j == 0.0);
        assert!(e.compute_j > e.mesh_j);
    }

    #[test]
    fn offchip_traffic_costs_more_per_byte_than_mesh() {
        let p = EpiphanyParams::default();
        let mut on = Chip::e16g3(p);
        on.write_remote(0, 1, 4096);
        let e_on = on.energy();

        let mut off = Chip::e16g3(p);
        off.write_external(0, GlobalAddr::external(0), 4096);
        let e_off = off.energy();

        let on_dynamic = e_on.mesh_j + e_on.elink_j + e_on.sdram_j;
        let off_dynamic = e_off.mesh_j + e_off.elink_j + e_off.sdram_j;
        assert!(
            off_dynamic > 5.0 * on_dynamic,
            "off-chip {off_dynamic:.3e} J should dwarf on-chip {on_dynamic:.3e} J"
        );
    }

    #[test]
    fn static_energy_grows_with_makespan() {
        let p = EpiphanyParams::default();
        let mut fast = Chip::e16g3(p);
        fast.compute(
            0,
            &OpCounts {
                flops: 1000,
                ..OpCounts::default()
            },
        );
        let mut slow = Chip::e16g3(p);
        slow.compute(
            0,
            &OpCounts {
                flops: 1_000_000,
                ..OpCounts::default()
            },
        );
        assert!(slow.energy().static_j > fast.energy().static_j);
    }

    #[test]
    fn full_load_power_magnitude_is_plausible() {
        // All 16 cores at one FMA + one load per cycle for 1M cycles:
        // average power should land near the 2 W datasheet figure.
        let mut chip = Chip::e16g3(EpiphanyParams::default());
        for core in 0..16 {
            chip.compute(
                core,
                &OpCounts {
                    fmas: 800_000,
                    loads: 700_000,
                    ialu: 100_000,
                    ..OpCounts::default()
                },
            );
        }
        let e = chip.energy();
        let w = e.avg_power_w(chip.elapsed_span().seconds());
        assert!(
            (0.5..4.0).contains(&w),
            "full-load power {w:.2} W far from the 2 W datasheet figure"
        );
    }

    #[test]
    fn breakdown_sums_to_total() {
        let mut chip = Chip::e16g3(EpiphanyParams::default());
        chip.compute(
            0,
            &OpCounts {
                flops: 100,
                ..OpCounts::default()
            },
        );
        chip.write_external(0, GlobalAddr::external(0), 64);
        let e = chip.energy();
        let sum = e.compute_j + e.sram_j + e.mesh_j + e.elink_j + e.sdram_j + e.static_j;
        assert!((sum - e.total_j()).abs() < 1e-18);
        assert_eq!(e.avg_power_w(0.0), 0.0);
    }
}
