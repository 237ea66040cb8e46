//! RDA on the full Epiphany mesh, SPMD, with an explicit tiled
//! corner-turn phase.
//!
//! Four phases over the [`RdaLayout`] regions, work units dealt
//! round-robin over the active cores:
//!
//! 1. `range` — each core DMA-fetches one raw pulse row (split across
//!    the two upper local banks when it exceeds one 8 KB bank),
//!    matched-filters it locally and posts the compressed row back to
//!    region B.
//! 2. `corner_turn` — the pulse-major matrix in B is transposed into
//!    region C tile by tile: a strided 2D DMA gathers a `TILE x TILE`
//!    block into bank A, the core transposes it locally, and a second
//!    strided 2D DMA scatters it bin-major from bank B. Nothing is
//!    computed beyond the transpose — this phase is pure eMesh/SDRAM
//!    pressure, the traffic wall the GPU-FFT and Epiphany-NoC papers
//!    identify as the throughput limiter for FFT-based SAR pipelines.
//! 3. `doppler` — one bin-major row (a full pulse history) DMA'd in,
//!    azimuth FFT, Doppler row posted to region B.
//! 4. `azimuth` — the Doppler row DMA'd back in, RCMC gathers fetched
//!    from deeper bins' rows with blocking reads, azimuth reference
//!    multiply + inverse FFT, focused row posted to region C.
//!
//! Every phase reads one region and writes a different one, so each
//! runs as one [`checkpointed`] phase: a core that halts is detected at
//! the end-of-phase health check, dropped, and the whole phase redone
//! on the survivors — bit-identical output, with the redone work
//! accounted as recovery cycles/energy.

use desim::OpCounts;
use epiphany::dma::DmaDirection;
use epiphany::EpiphanyParams;
use sar_core::complex::c32;
use sar_core::image::ComplexImage;
use sar_core::rda::{
    azimuth_compress, azimuth_reference, doppler_spectrum, range_compress_row, rcmc_correct,
    rcmc_shift,
};
use sar_core::signal::{lfm_chirp, MatchedFilter};
use sim_harness::{ImageRun, RdaWorkload, RunContext};

use crate::layout::{RdaLayout, BANK_CHILD_A, BANK_CHILD_B, PIXEL_BYTES};
use crate::spmd::{checkpointed, chip_for};

/// Corner-turn tile edge, in elements. 32 x 32 c32 tiles are 8 KB —
/// exactly one local bank in, one out.
pub const TILE: usize = 32;

/// Knobs for the ablation benches.
#[derive(Debug, Clone, Copy, Default)]
pub struct RdaSpmdOptions {
    /// Cores to use. `None` (the default) means every core the
    /// platform's mesh provides; `Some(n)` pins the count on a compact
    /// [`epiphany::Chip::subgrid_cores`] subgrid.
    pub cores: Option<usize>,
}

/// The local-transpose ledger for one `elems`-element tile (also used
/// by the mapping's program model, so the declaration cannot drift
/// from the driver).
pub fn transpose_ops(elems: u64) -> OpCounts {
    OpCounts {
        loads: 2 * elems,
        stores: 2 * elems,
        ialu: 2 * elems,
        ..OpCounts::default()
    }
}

/// Execute the RDA workload on the Epiphany model with `opts`,
/// emitting the chip's spans into `ctx.tracer` and running under
/// `ctx.faults` (checkpoint/restart at phase granularity — see the
/// module docs). The record carries one phase per pipeline stage.
pub fn run(
    w: &RdaWorkload,
    params: EpiphanyParams,
    opts: RdaSpmdOptions,
    ctx: &RunContext,
) -> ImageRun {
    let geom = &w.geom;
    let n = geom.num_pulses;
    let bins = geom.num_bins;
    let layout = RdaLayout::new(n as u32, bins as u32, w.raw.cols() as u32);
    let (mut chip, mut active) = chip_for(params, opts.cores, ctx);
    let n_cores = active.len();
    let bank_bytes = u64::from(params.sram.bank_bytes);

    let waveform = lfm_chirp(w.config.chirp);
    let mf = MatchedFilter::new(&waveform, w.raw.cols());
    let mut counts = OpCounts::default();
    let mut charged = OpCounts::default();

    // Phase 1: range compression, A -> B (pulse-major).
    let mut rc = ComplexImage::zeros(n, bins);
    checkpointed(
        &mut chip,
        &ctx.faults,
        &mut active,
        "range",
        |chip, active, last_write| {
            for k in 0..n {
                let core = active[k % active.len()];
                let row_bytes = layout.raw_row_bytes();
                let head = row_bytes.min(bank_bytes);
                let mut done = chip.dma_start(
                    core,
                    DmaDirection::ExternalToLocal,
                    layout.raw_addr(k as u32, 0),
                    BANK_CHILD_A,
                    head,
                );
                if row_bytes > head {
                    // Paper-scale raw rows (9,032 B) overflow one bank;
                    // the tail lands in the second upper bank.
                    done = done.max(chip.dma_start(
                        core,
                        DmaDirection::ExternalToLocal,
                        layout.raw_addr(k as u32, (head / PIXEL_BYTES) as u32),
                        BANK_CHILD_B,
                        row_bytes - head,
                    ));
                }
                chip.dma_wait(core, done);
                let row = range_compress_row(&mf, w.raw.row(k), bins, &mut counts);
                rc.row_mut(k).copy_from_slice(&row);
                let delta = counts.since(&charged);
                charged = counts;
                chip.compute(core, &delta);
                let arrival =
                    chip.write_external(core, layout.rc_addr(k as u32, 0), layout.rc_row_bytes());
                last_write[core] = last_write[core].max(arrival);
            }
        },
    );

    // Phase 2: tiled corner turn, B -> C. Pure transpose traffic:
    // strided 2D DMA in, local transpose, strided 2D DMA out.
    let tile_rows = n.div_ceil(TILE);
    let tile_cols = bins.div_ceil(TILE);
    checkpointed(
        &mut chip,
        &ctx.faults,
        &mut active,
        "corner_turn",
        |chip, active, _| {
            let mut task = 0usize;
            for ti in 0..tile_rows {
                for tj in 0..tile_cols {
                    let core = active[task % active.len()];
                    task += 1;
                    let p0 = ti * TILE;
                    let b0 = tj * TILE;
                    let rows = TILE.min(n - p0);
                    let cols = TILE.min(bins - b0);
                    let done_in = chip.dma_start_2d(
                        core,
                        DmaDirection::ExternalToLocal,
                        layout.rc_addr(p0 as u32, b0 as u32),
                        BANK_CHILD_A,
                        rows as u32,
                        cols as u64 * PIXEL_BYTES,
                        layout.rc_row_bytes() as u32,
                    );
                    chip.dma_wait(core, done_in);
                    chip.compute(core, &transpose_ops((rows * cols) as u64));
                    let done_out = chip.dma_start_2d(
                        core,
                        DmaDirection::LocalToExternal,
                        layout.ct_addr(b0 as u32, p0 as u32),
                        BANK_CHILD_B,
                        cols as u32,
                        rows as u64 * PIXEL_BYTES,
                        layout.col_bytes() as u32,
                    );
                    chip.dma_wait(core, done_out);
                }
            }
            chip.phase_metric("tiles", (tile_rows * tile_cols) as f64);
        },
    );

    // Phase 3: azimuth FFT per bin, C -> B (bin-major).
    let mut rd = ComplexImage::zeros(bins, n);
    checkpointed(
        &mut chip,
        &ctx.faults,
        &mut active,
        "doppler",
        |chip, active, last_write| {
            let mut col = vec![c32::ZERO; n];
            for i in 0..bins {
                let core = active[i % active.len()];
                let done = chip.dma_start(
                    core,
                    DmaDirection::ExternalToLocal,
                    layout.ct_addr(i as u32, 0),
                    BANK_CHILD_A,
                    layout.col_bytes(),
                );
                chip.dma_wait(core, done);
                for (k, c) in col.iter_mut().enumerate() {
                    *c = rc.at(k, i);
                }
                let spectrum = doppler_spectrum(&col, &mut counts);
                rd.row_mut(i).copy_from_slice(&spectrum);
                let delta = counts.since(&charged);
                charged = counts;
                chip.compute(core, &delta);
                let arrival =
                    chip.write_external(core, layout.rd_addr(i as u32, 0), layout.col_bytes());
                last_write[core] = last_write[core].max(arrival);
            }
        },
    );

    // Phase 4: RCMC + azimuth compression per bin, B -> C (bin-major).
    let mut image = ComplexImage::zeros(n, bins);
    checkpointed(
        &mut chip,
        &ctx.faults,
        &mut active,
        "azimuth",
        |chip, active, last_write| {
            let mut gathers: Vec<memsim::GlobalAddr> = Vec::with_capacity(n);
            for i in 0..bins {
                let core = active[i % active.len()];
                let done = chip.dma_start(
                    core,
                    DmaDirection::ExternalToLocal,
                    layout.rd_addr(i as u32, 0),
                    BANK_CHILD_A,
                    layout.col_bytes(),
                );
                chip.dma_wait(core, done);
                gathers.clear();
                if w.config.rcmc {
                    for m in 0..n {
                        let d = rcmc_shift(geom, i, m);
                        if d > 0 && i + d < bins {
                            gathers.push(layout.rd_addr((i + d) as u32, m as u32));
                        }
                    }
                }
                chip.read_external_run(core, &gathers, 8);
                let corrected = rcmc_correct(&rd, geom, i, w.config.rcmc, &mut counts);
                let href = azimuth_reference(geom, i, &mut counts);
                let line = azimuth_compress(&corrected, &href, &mut counts);
                for k in 0..n {
                    *image.at_mut(k, i) = line[(k + n / 2) % n];
                }
                let delta = counts.since(&charged);
                charged = counts;
                chip.compute(core, &delta);
                let arrival =
                    chip.write_external(core, layout.ct_addr(i as u32, 0), layout.col_bytes());
                last_write[core] = last_write[core].max(arrival);
            }
        },
    );

    ImageRun {
        record: chip.report(
            &format!("RDA / Epiphany, {n_cores} cores @ 1 GHz (SPMD)"),
            n_cores,
        ),
        image,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rda_seq;
    use desim::Cycle;
    use faultsim::FaultState;

    /// A fault-free, untraced run.
    fn run(w: &RdaWorkload, params: EpiphanyParams, opts: RdaSpmdOptions) -> ImageRun {
        super::run(w, params, opts, &RunContext::plain())
    }
    use sar_core::rda::rda;

    #[test]
    fn image_matches_the_plain_algorithm_and_the_sequential_port() {
        let w = RdaWorkload::small();
        let spmd = run(&w, EpiphanyParams::default(), RdaSpmdOptions::default());
        let plain = rda(&w.raw, &w.geom, &w.config);
        let seq = rda_seq::run(&w, EpiphanyParams::default(), &RunContext::plain());
        assert_eq!(spmd.image.as_slice(), plain.image.as_slice());
        assert_eq!(spmd.image.as_slice(), seq.image.as_slice());
    }

    #[test]
    fn e64_forms_the_same_image_and_runs_no_slower() {
        let w = RdaWorkload::small();
        let e16 = run(&w, EpiphanyParams::default(), RdaSpmdOptions::default());
        let e64 = run(&w, EpiphanyParams::e64(), RdaSpmdOptions::default());
        assert!(
            e64.record.label.contains("64 cores"),
            "{}",
            e64.record.label
        );
        assert_eq!(
            e64.image.as_slice(),
            e16.image.as_slice(),
            "the formed image is independent of the mesh"
        );
        assert!(e64.record.elapsed.seconds() <= e16.record.elapsed.seconds());
    }

    #[test]
    fn parallel_beats_sequential() {
        let w = RdaWorkload::small();
        let par = run(&w, EpiphanyParams::default(), RdaSpmdOptions::default());
        let seq = rda_seq::run(&w, EpiphanyParams::default(), &RunContext::plain());
        let speedup = seq.record.elapsed.seconds() / par.record.elapsed.seconds();
        assert!(
            speedup > 4.0,
            "16-core SPMD should be far faster than 1 core, got {speedup:.2}x"
        );
        assert!(speedup < 100.0, "speedup {speedup:.2}x is absurd");
    }

    #[test]
    fn corner_turn_phase_loads_the_mesh() {
        let w = RdaWorkload::small();
        let r = run(&w, EpiphanyParams::default(), RdaSpmdOptions::default());
        assert_eq!(r.record.phases.len(), 4);
        let ct = &r.record.phases[1];
        assert_eq!(ct.name, "corner_turn");
        // The transpose is pure traffic: every tile crosses the xMesh
        // twice (in and out), so the phase must show byte-hops.
        assert!(
            ct.mesh.xmesh_byte_hops > 0,
            "corner turn must load the off-chip mesh"
        );
        assert!(ct.mesh.total_byte_hops() > 0);
        assert_eq!(
            ct.metrics.get("tiles").copied(),
            Some((w.geom.num_pulses.div_ceil(TILE) * w.geom.num_bins.div_ceil(TILE)) as f64)
        );
        // And the run-wide heatmap spreads the load over several links.
        let heat = r.record.mesh_heatmap.as_ref().expect("epiphany heatmap");
        assert!(heat.total_byte_hops() > 0);
        let loaded = heat.links.iter().filter(|l| l.byte_hops > 0).count();
        assert!(loaded > 4, "only {loaded} mesh links carried traffic");
    }

    #[test]
    fn a_16_core_subgrid_of_the_e64_matches_the_e16_image() {
        let w = RdaWorkload::small();
        let e16 = run(&w, EpiphanyParams::default(), RdaSpmdOptions::default());
        let sub = run(
            &w,
            EpiphanyParams::e64(),
            RdaSpmdOptions { cores: Some(16) },
        );
        assert_eq!(sub.image.as_slice(), e16.image.as_slice());
        assert!(sub.record.label.contains("16 cores"));
    }

    #[test]
    fn fewer_cores_run_longer() {
        let w = RdaWorkload::small();
        let four = run(
            &w,
            EpiphanyParams::default(),
            RdaSpmdOptions { cores: Some(4) },
        );
        let sixteen = run(&w, EpiphanyParams::default(), RdaSpmdOptions::default());
        assert!(four.record.elapsed.seconds() > sixteen.record.elapsed.seconds());
    }

    #[test]
    fn core_halt_recovery_reproduces_the_image_bit_for_bit() {
        use faultsim::{FaultEvent, FaultPlan};
        let w = RdaWorkload::small();
        let clean = run(&w, EpiphanyParams::default(), RdaSpmdOptions::default());
        let plan = FaultPlan::from_events(
            19,
            vec![FaultEvent::CoreHalt {
                core: 6,
                at: Cycle(2_000),
            }],
        );
        let faults = FaultState::from_plan(&plan);
        let r = super::run(
            &w,
            EpiphanyParams::default(),
            RdaSpmdOptions::default(),
            &RunContext::plain().with_faults(faults.clone()),
        );
        assert_eq!(
            r.image.as_slice(),
            clean.image.as_slice(),
            "checkpoint/restart must reproduce the fault-free image bit-for-bit"
        );
        let totals = faults.totals();
        assert_eq!(totals.degraded_cores, 1);
        assert!(totals.recovery_cycles > 0);
        assert_eq!(r.record.faults, totals);
        assert!(r.record.elapsed.cycles.raw() > clean.record.elapsed.cycles.raw());
    }

    #[test]
    fn core_halt_recovery_is_deterministic() {
        use faultsim::{FaultEvent, FaultPlan};
        let w = RdaWorkload::small();
        let plan = FaultPlan::from_events(
            23,
            vec![FaultEvent::CoreHalt {
                core: 2,
                at: Cycle(10_000),
            }],
        );
        let go = || {
            super::run(
                &w,
                EpiphanyParams::default(),
                RdaSpmdOptions::default(),
                &RunContext::plain().with_faults(FaultState::from_plan(&plan)),
            )
        };
        let (a, b) = (go(), go());
        assert_eq!(a.record.elapsed.cycles, b.record.elapsed.cycles);
        assert_eq!(a.record.faults, b.record.faults);
        assert_eq!(a.image.as_slice(), b.image.as_slice());
    }
}
