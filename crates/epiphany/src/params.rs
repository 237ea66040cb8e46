//! E16G3 model parameters, each annotated with its source.
//!
//! Nothing in here is fitted to the paper's *results*; the constants
//! are architecture facts from the Epiphany Architecture Reference /
//! E16G3 datasheet, the Microprocessor Report piece ("Adapteva: More
//! flops, less watts", 2011), or standard software-implementation costs
//! for an FPU without divide/sqrt hardware.

use desim::Frequency;
use emesh::network::EMeshParams;
use memsim::{SdramParams, SramParams};

/// Microarchitecture and energy constants for the Epiphany model.
#[derive(Debug, Clone, Copy)]
pub struct EpiphanyParams {
    /// Core clock. The evaluation board runs at 400 MHz; the paper
    /// reports results scaled to the 1 GHz specification point, which
    /// is also our default.
    pub clock: Frequency,

    // ---- chip geometry -------------------------------------------------
    /// Mesh columns. The default 4x4 is the E16G3; the family scales
    /// the same core to larger meshes (E64: 8x8) with identical
    /// per-core constants.
    pub mesh_cols: u16,
    /// Mesh rows.
    pub mesh_rows: u16,

    // ---- core pipeline -------------------------------------------------
    /// Instruction-level-parallelism efficiency of the dual-issue
    /// pairing: the fraction of cycles where an FPU and an IALU/LS
    /// instruction actually pair (dependences and branches break
    /// pairing). 0.8 reflects hand-scheduled inner loops.
    pub pairing_efficiency: f64,
    /// FPU instructions a software square root expands to (Newton
    /// iterations on a seed; the paper notes a "less compute-intensive
    /// implementation of the square root operation").
    pub sqrt_flops: u64,
    /// FPU instructions for a software divide (reciprocal + Newton).
    pub div_flops: u64,
    /// FPU instructions for a polynomial acos/cos evaluation.
    pub trig_flops: u64,
    /// Cycles for a local-store load (pipelined; back-to-back issue).
    pub local_load_cycles: u64,
    /// Cycles for a local-store store.
    pub local_store_cycles: u64,

    // ---- communication -------------------------------------------------
    /// Posted-write issue cost at the source (single-cycle throughput
    /// per double word; the transaction then rides the mesh).
    pub write_issue_cycles_per_dword: u64,
    /// Extra cycles a core spends setting up one remote read (address
    /// computation is already in the op counts; this is the transaction
    /// issue overhead).
    pub read_issue_cycles: u64,
    /// Outstanding posted-write backlog a core tolerates before it
    /// stalls (models the finite write buffer toward the eLink).
    pub write_buffer_cycles: u64,
    /// Cycles to set up one DMA descriptor.
    pub dma_setup_cycles: u64,
    /// Cost of a synchronization flag check (poll iteration).
    pub flag_poll_cycles: u64,
    /// Cap on charged poll iterations per flag wait. A consumer spins
    /// on the flag word for the whole wait, but the loop is a local
    /// load + branch hitting the same bank line, so after the line is
    /// hot the energy per iteration collapses; the cap models that
    /// saturation (and keeps a pathological wait from dominating the
    /// energy account).
    pub flag_poll_max_polls: u64,
    /// Barrier cost per participant pair (flag write + poll across the
    /// mesh; dominated by two neighbour hops each way).
    pub barrier_base_cycles: u64,
    /// Consumer watchdog timeout before a lost flag write is NACKed
    /// and re-sent ([`crate::Chip::send_reliable`]). Sized well above
    /// the worst-case on-chip delivery so the fault-free path never
    /// trips it.
    pub flag_retry_timeout_cycles: u64,
    /// Re-send attempts before [`crate::Chip::send_reliable`] gives up
    /// (the timeout doubles each attempt, capped at 8x the base).
    pub flag_retry_max: u32,

    // ---- fabric & memory geometry --------------------------------------
    /// eMesh parameters (link width, hop latency, eLink width).
    pub emesh: EMeshParams,
    /// Local-store geometry (4 x 8 KB banks).
    pub sram: SramParams,
    /// Board SDRAM parameters (latencies in core cycles).
    pub sdram: SdramParams,

    // ---- energy (65 nm; calibrated only to the 2 W chip figure) --------
    /// Energy per FPU instruction, picojoules.
    pub pj_per_flop: f64,
    /// Energy per IALU instruction, picojoules.
    pub pj_per_ialu: f64,
    /// Energy per local-store access (8 bytes), picojoules.
    pub pj_per_local_access: f64,
    /// Energy per byte-hop on the mesh, picojoules.
    pub pj_per_mesh_byte_hop: f64,
    /// Energy per byte through the eLink (I/O drivers), picojoules.
    pub pj_per_elink_byte: f64,
    /// Energy per byte of SDRAM traffic (device + PHY), picojoules.
    pub pj_per_sdram_byte: f64,
    /// Static (leakage + always-on clock tree) power per core, watts.
    /// With fine-grained clock gating this is all an idle core burns.
    pub static_w_per_core: f64,
    /// Chip-level static power (PLL, I/O standby), watts.
    pub static_w_chip: f64,
}

impl Default for EpiphanyParams {
    fn default() -> Self {
        EpiphanyParams {
            clock: Frequency::ghz(1.0),
            mesh_cols: 4,
            mesh_rows: 4,
            pairing_efficiency: 0.8,
            sqrt_flops: 12,
            div_flops: 8,
            trig_flops: 18,
            local_load_cycles: 1,
            local_store_cycles: 1,
            write_issue_cycles_per_dword: 1,
            read_issue_cycles: 2,
            write_buffer_cycles: 32,
            dma_setup_cycles: 20,
            flag_poll_cycles: 2,
            flag_poll_max_polls: 64,
            barrier_base_cycles: 12,
            flag_retry_timeout_cycles: 2048,
            flag_retry_max: 8,
            emesh: EMeshParams::default(),
            sram: SramParams::default(),
            // Board SDRAM is reached through the eLink and an FPGA
            // memory controller on the evaluation board; unbuffered
            // reads cost on the order of 100+ core cycles at 1 GHz.
            sdram: SdramParams {
                bytes_per_cycle: 16,
                row_hit_cycles: 80,
                row_miss_cycles: 140,
                banks: 8,
                row_bytes: 2048,
            },
            // 65 nm per-op energies including fetch/decode/regfile
            // overhead; chosen so 16 fully busy cores plus statics land
            // near the 2 W datasheet chip figure.
            pj_per_flop: 50.0,
            pj_per_ialu: 15.0,
            pj_per_local_access: 20.0,
            pj_per_mesh_byte_hop: 2.0,
            pj_per_elink_byte: 60.0,
            pj_per_sdram_byte: 150.0,
            static_w_per_core: 0.015,
            static_w_chip: 0.2,
        }
    }
}

impl EpiphanyParams {
    /// Parameters for the experimental board clocked at 400 MHz.
    pub fn board_400mhz() -> Self {
        EpiphanyParams {
            clock: Frequency::mhz(400.0),
            ..Self::default()
        }
    }

    /// Core count of the reference E16G3 chip the energy constants are
    /// calibrated against.
    pub const REFERENCE_CORES: usize = 16;

    /// Number of cores implied by the mesh geometry.
    pub fn cores(&self) -> usize {
        self.mesh_cols as usize * self.mesh_rows as usize
    }

    /// Parameters for a `cols x rows` chip of the same family: same
    /// per-core microarchitecture and energy constants, with the
    /// chip-level static power (clock tree, PLL fanout) scaled with
    /// die area relative to the 16-core reference. Per-core static
    /// power scales automatically in the energy model via the core
    /// count.
    pub fn with_mesh(cols: u16, rows: u16) -> Self {
        assert!(cols > 0 && rows > 0, "degenerate {cols}x{rows} mesh");
        let base = Self::default();
        let scale = (cols as usize * rows as usize) as f64 / Self::REFERENCE_CORES as f64;
        EpiphanyParams {
            mesh_cols: cols,
            mesh_rows: rows,
            static_w_chip: base.static_w_chip * scale,
            ..base
        }
    }

    /// Parameters for the 64-core family member (8x8 mesh).
    pub fn e64() -> Self {
        Self::with_mesh(8, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_datasheet_geometry() {
        let p = EpiphanyParams::default();
        assert_eq!(p.sram.banks, 4);
        assert_eq!(p.sram.bank_bytes, 8 * 1024);
        assert_eq!(p.emesh.link_bytes_per_cycle, 8);
        assert_eq!(p.emesh.elink_bytes_per_cycle, 8);
        assert!((p.clock.hz() - 1e9).abs() < 1.0);
    }

    #[test]
    fn board_clock_is_400mhz() {
        let p = EpiphanyParams::board_400mhz();
        assert!((p.clock.hz() - 4e8).abs() < 1.0);
    }

    /// Full-load chip power implied by the energy constants, derived
    /// from the mesh geometry rather than a hard-coded core count.
    fn full_load_w(p: &EpiphanyParams) -> f64 {
        let per_core_w =
            (p.pj_per_flop + p.pj_per_ialu + 0.5 * p.pj_per_local_access) * 1e-12 * p.clock.hz();
        p.cores() as f64 * (per_core_w + p.static_w_per_core) + p.static_w_chip
    }

    #[test]
    fn full_load_power_is_near_two_watts() {
        // Sanity check on the energy constants: every core retiring
        // one FPU + one IALU + ~0.5 local accesses per cycle at 1 GHz,
        // plus statics, should land in the neighbourhood of the 2 W
        // datasheet figure (within a factor ~1.5 either way).
        let p = EpiphanyParams::default();
        assert_eq!(p.cores(), EpiphanyParams::REFERENCE_CORES);
        let chip_w = full_load_w(&p);
        assert!(
            (1.0..3.0).contains(&chip_w),
            "implausible full-load power {chip_w:.2} W"
        );
    }

    #[test]
    fn e64_scales_power_with_the_mesh() {
        let e16 = EpiphanyParams::default();
        let e64 = EpiphanyParams::e64();
        assert_eq!((e64.mesh_cols, e64.mesh_rows), (8, 8));
        assert_eq!(e64.cores(), 64);
        // Same per-core constants...
        assert_eq!(e64.pj_per_flop, e16.pj_per_flop);
        assert_eq!(e64.static_w_per_core, e16.static_w_per_core);
        // ...chip-level static scaled 4x with die area...
        assert!((e64.static_w_chip - 4.0 * e16.static_w_chip).abs() < 1e-12);
        // ...so full-load power scales 4x with the core count.
        let ratio = full_load_w(&e64) / full_load_w(&e16);
        assert!((ratio - 4.0).abs() < 1e-9, "e64/e16 ratio {ratio:.6}");
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_sized_mesh_is_rejected() {
        let _ = EpiphanyParams::with_mesh(0, 4);
    }
}
