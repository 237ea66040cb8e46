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

use desim::{Cycle, OpCounts};
use epiphany::dma::DmaDirection;
use epiphany::EpiphanyParams;
use sar_core::rda::MigrationTable;
use sim_harness::{Bound, ImageRun, ProgramModel, RdaWorkload, RunContext};

use crate::clock_label;
use crate::layout::{RdaLayout, BANK_CHILD_A, BANK_CHILD_B, PIXEL_BYTES};
use crate::rda_seq::{priced, probe, rcmc_gathers};
use crate::spmd::{self, checkpointed, chip_for, owned, owner};

/// Corner-turn tile edge, in elements. 32 x 32 c32 tiles are 8 KB —
/// exactly one local bank in, one out.
pub const TILE: usize = 32;

/// Knobs for the ablation benches.
#[derive(Debug, Clone, Copy, Default)]
pub struct RdaSpmdOptions {
    /// Cores to use. `None` (the default) means every core the
    /// platform's mesh provides; `Some(n)` pins the count on a compact
    /// [`epiphany::Chip::subgrid_on`] subgrid.
    pub cores: Option<usize>,
}

/// The local-transpose ledger for one `elems`-element tile.
fn transpose_ops(elems: u64) -> OpCounts {
    OpCounts {
        loads: 2 * elems,
        stores: 2 * elems,
        ialu: 2 * elems,
        ..OpCounts::default()
    }
}

/// One corner-turn tile: `rows` pulses from `pulse0` by `cols` bins
/// from `bin0`.
pub(crate) struct Tile {
    pub pulse0: usize,
    pub bin0: usize,
    pub rows: usize,
    pub cols: usize,
}

/// The corner turn's work units: the [`TILE`]-edged tiling of the
/// `pulses x bins` matrix (ragged at the far edges), in deal order.
pub(crate) fn tiles(pulses: usize, bins: usize) -> impl Iterator<Item = Tile> {
    (0..pulses.div_ceil(TILE)).flat_map(move |ti| {
        (0..bins.div_ceil(TILE)).map(move |tj| {
            let (pulse0, bin0) = (ti * TILE, tj * TILE);
            Tile {
                pulse0,
                bin0,
                rows: TILE.min(pulses - pulse0),
                cols: TILE.min(bins - bin0),
            }
        })
    })
}

/// The DMA descriptors that fetch one raw pulse row into local banks
/// of `bank_bytes`, as `(first sample, bank, bytes)`: the head into
/// bank A and, when the row overflows one bank (paper-scale rows are
/// 9,032 B), the tail into bank B.
pub(crate) fn raw_row_parts(
    layout: &RdaLayout,
    bank_bytes: u64,
) -> impl Iterator<Item = (u32, usize, u64)> {
    let row_bytes = layout.raw_row_bytes();
    let head = row_bytes.min(bank_bytes);
    [
        (0, BANK_CHILD_A, head),
        ((head / PIXEL_BYTES) as u32, BANK_CHILD_B, row_bytes - head),
    ]
    .into_iter()
    .filter(|&(_, _, bytes)| bytes > 0)
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
    let (n, bins) = (w.geom.num_pulses, w.geom.num_bins);
    let layout = RdaLayout::of(w);
    let (mut chip, mut active) = chip_for(params, opts.cores, ctx);
    let n_cores = active.len();
    let bank_bytes = u64::from(params.sram.bank_bytes);
    let migration = MigrationTable::new(&w.geom, w.config.rcmc);

    let image = priced(w, &migration, |[range_row, doppler_bin, azimuth_bin]| {
        // Phase 1: range compression, A -> B (pulse-major).
        checkpointed(
            &mut chip,
            &ctx.faults,
            &mut active,
            "range",
            |chip, active, last_write| {
                for k in 0..n {
                    let core = active[owner(k, active.len())];
                    let done = raw_row_parts(&layout, bank_bytes)
                        .map(|(sample, bank, bytes)| {
                            chip.dma_start(
                                core,
                                DmaDirection::ExternalToLocal,
                                layout.raw_addr(k as u32, sample),
                                bank,
                                bytes,
                            )
                        })
                        .fold(Cycle::ZERO, Cycle::max);
                    chip.dma_wait(core, done);
                    chip.compute(core, &range_row);
                    let arrival = chip.write_external(
                        core,
                        layout.rc_addr(k as u32, 0),
                        layout.rc_row_bytes(),
                    );
                    last_write[core] = last_write[core].max(arrival);
                }
            },
        );

        // Phase 2: tiled corner turn, B -> C. Pure transpose traffic:
        // strided 2D DMA in, local transpose, strided 2D DMA out.
        checkpointed(
            &mut chip,
            &ctx.faults,
            &mut active,
            "corner_turn",
            |chip, active, _| {
                for (task, tile) in tiles(n, bins).enumerate() {
                    let core = active[owner(task, active.len())];
                    let done_in = chip.dma_start_2d(
                        core,
                        DmaDirection::ExternalToLocal,
                        layout.rc_addr(tile.pulse0 as u32, tile.bin0 as u32),
                        BANK_CHILD_A,
                        tile.rows as u32,
                        tile.cols as u64 * PIXEL_BYTES,
                        layout.rc_row_bytes() as u32,
                    );
                    chip.dma_wait(core, done_in);
                    chip.compute(core, &transpose_ops((tile.rows * tile.cols) as u64));
                    let done_out = chip.dma_start_2d(
                        core,
                        DmaDirection::LocalToExternal,
                        layout.ct_addr(tile.bin0 as u32, tile.pulse0 as u32),
                        BANK_CHILD_B,
                        tile.cols as u32,
                        tile.rows as u64 * PIXEL_BYTES,
                        layout.col_bytes() as u32,
                    );
                    chip.dma_wait(core, done_out);
                }
                chip.phase_metric("tiles", tiles(n, bins).count() as f64);
            },
        );

        // Phase 3: azimuth FFT per bin, C -> B (bin-major).
        checkpointed(
            &mut chip,
            &ctx.faults,
            &mut active,
            "doppler",
            |chip, active, last_write| {
                for i in 0..bins {
                    let core = active[owner(i, active.len())];
                    let done = chip.dma_start(
                        core,
                        DmaDirection::ExternalToLocal,
                        layout.ct_addr(i as u32, 0),
                        BANK_CHILD_A,
                        layout.col_bytes(),
                    );
                    chip.dma_wait(core, done);
                    chip.compute(core, &doppler_bin);
                    let arrival =
                        chip.write_external(core, layout.rd_addr(i as u32, 0), layout.col_bytes());
                    last_write[core] = last_write[core].max(arrival);
                }
            },
        );

        // Phase 4: RCMC + azimuth compression per bin, B -> C (bin-major).
        checkpointed(
            &mut chip,
            &ctx.faults,
            &mut active,
            "azimuth",
            |chip, active, last_write| {
                let mut gathers = Vec::with_capacity(n);
                for i in 0..bins {
                    let core = active[owner(i, active.len())];
                    let done = chip.dma_start(
                        core,
                        DmaDirection::ExternalToLocal,
                        layout.rd_addr(i as u32, 0),
                        BANK_CHILD_A,
                        layout.col_bytes(),
                    );
                    chip.dma_wait(core, done);
                    gathers.clear();
                    gathers
                        .extend(rcmc_gathers(&migration, i).map(|(bin, m)| layout.rd_addr(bin, m)));
                    chip.read_external_run(core, &gathers, 8);
                    chip.compute(core, &azimuth_bin);
                    let arrival =
                        chip.write_external(core, layout.ct_addr(i as u32, 0), layout.col_bytes());
                    last_write[core] = last_write[core].max(arrival);
                }
            },
        );
    });

    let clock = clock_label(chip.params().clock);
    let label = format!("RDA / Epiphany, {n_cores} cores @ {clock} (SPMD)");
    ImageRun {
        record: chip.report(&label, n_cores),
        image,
    }
}

/// The static description of [`run`] on a `mesh`-sized platform. Each
/// core stages DMA landings (raw pulse rows, corner-turn tiles,
/// bin-major rows) in its two upper banks — declared bank-sized, since
/// the raw-row head and the paper-scale bin-major rows fill one whole
/// bank. The model has no platform parameters, so it assumes the
/// default bank size.
pub fn model(w: &RdaWorkload, opts: &RdaSpmdOptions, mesh: (u16, u16)) -> ProgramModel {
    let mut m = spmd::model(mesh, opts.cores, "phase_end");
    let bank = EpiphanyParams::default().sram.bank_bytes;
    let layout = RdaLayout::of(w);
    let migration = MigrationTable::new(&w.geom, w.config.rcmc);
    let [per_range_row, per_doppler_bin, per_azimuth_bin] = probe(w, &migration);
    let (pulses, bins) = (w.geom.num_pulses, w.geom.num_bins);
    let nc = m.cores.len();

    // Bank A receives every inbound landing: raw-row heads,
    // corner-turn tiles and bin-major rows. Bank B only ever receives
    // the raw-row *tail*; the corner turn's outbound tile is staged
    // there but written locally, never landed.
    let raw_parts: Vec<_> = raw_row_parts(&layout, u64::from(bank)).collect();
    for c in m.cores.clone() {
        m.buffer(format!("stage_a[{c}]"), c, BANK_CHILD_A, 0, bank);
        for &(_, tail_bank, bytes) in &raw_parts[1..] {
            m.buffer(format!("raw_tail[{c}]"), c, tail_bank, 0, bytes as u32);
        }
    }

    // Phase 1: one raw pulse row DMA'd in per owned pulse, the
    // compressed row posted back.
    let raw_row = layout.raw_row_bytes() as f64;
    let rc_row = layout.rc_row_bytes() as f64;
    spmd::phase(&mut m, "range", 1, |pos, wd| {
        let rows = owned(pulses, nc, pos) as u64;
        let rows_f = rows as f64;
        wd.exact_ops(per_range_row.scaled(rows));
        wd.compute_calls = Bound::exact(rows_f);
        wd.dma_msgs = Bound::exact(raw_parts.len() as f64 * rows_f);
        wd.dma_bytes = Bound::exact(rows_f * raw_row);
        wd.ext_write_msgs = Bound::exact(rows_f);
        wd.ext_write_bytes = Bound::exact(rows_f * rc_row);
    });

    // Phase 2: the tiled corner turn — per owned tile one strided 2D
    // DMA in, a local transpose, one strided 2D DMA out. Pure traffic.
    let mut tiles_per = vec![0u64; nc];
    let mut elems_per = vec![0u64; nc];
    for (task, tile) in tiles(pulses, bins).enumerate() {
        tiles_per[owner(task, nc)] += 1;
        elems_per[owner(task, nc)] += (tile.rows * tile.cols) as u64;
    }
    spmd::phase(&mut m, "corner_turn", 1, |pos, wd| {
        wd.exact_ops(transpose_ops(elems_per[pos]));
        wd.compute_calls = Bound::exact(tiles_per[pos] as f64);
        wd.dma_msgs = Bound::exact(2.0 * tiles_per[pos] as f64);
        wd.dma_bytes = Bound::exact(2.0 * 8.0 * elems_per[pos] as f64);
    });

    // Phases 3 and 4: bin-major rows in and out; the azimuth phase
    // additionally issues its exact per-bin RCMC gathers as blocking
    // 8 B reads.
    let mut gathers_per = vec![0u64; nc];
    for (i, gathers) in migration.gathers_per_bin().into_iter().enumerate() {
        gathers_per[owner(i, nc)] += gathers as u64;
    }
    let col_bytes = layout.col_bytes() as f64;
    for (name, per_bin, gathers) in [
        ("doppler", per_doppler_bin, &vec![0; nc]),
        ("azimuth", per_azimuth_bin, &gathers_per),
    ] {
        spmd::phase(&mut m, name, 1, |pos, wd| {
            let rows = owned(bins, nc, pos) as u64;
            let rows_f = rows as f64;
            wd.exact_ops(per_bin.scaled(rows));
            wd.compute_calls = Bound::exact(rows_f);
            wd.dma_msgs = Bound::exact(rows_f);
            wd.dma_bytes = Bound::exact(rows_f * col_bytes);
            wd.ext_read_msgs = Bound::exact(gathers[pos] as f64);
            wd.ext_read_bytes = Bound::exact(8.0 * gathers[pos] as f64);
            wd.ext_write_msgs = Bound::exact(rows_f);
            wd.ext_write_bytes = Bound::exact(rows_f * col_bytes);
        });
    }
    m
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

    #[test]
    fn rda_spmd_model_declares_the_staging_banks_and_the_corner_turn() {
        let w = RdaWorkload::small();
        let m = model(&w, &RdaSpmdOptions::default(), (4, 4));
        assert_eq!(m.cores.len(), 16);
        // One bank-sized staging buffer per core at small scale (raw
        // rows fit one bank); the paper-scale rows overflow into the
        // second upper bank, adding a tail buffer per core.
        assert_eq!(m.buffers.len(), 16);
        assert!(m.buffers.iter().all(|b| b.bank == BANK_CHILD_A));
        let paper = model(&RdaWorkload::paper(), &RdaSpmdOptions::default(), (4, 4));
        assert_eq!(paper.buffers.len(), 32);
        assert!(paper
            .buffers
            .iter()
            .all(|b| b.bank == BANK_CHILD_A || b.bank == BANK_CHILD_B));
        // The tail is what the driver's second descriptor per raw row
        // lands: a 9,032 B row splits at the 8 KB bank edge, sample 1024.
        let paper_layout = RdaLayout::of(&RdaWorkload::paper());
        let parts: Vec<_> = raw_row_parts(&paper_layout, 8192).collect();
        assert_eq!(parts, [(0, BANK_CHILD_A, 8192), (1024, BANK_CHILD_B, 840)]);
        assert!(paper
            .buffers
            .iter()
            .any(|b| (b.bank, b.bytes) == (BANK_CHILD_B, 840)));
        assert_eq!(raw_row_parts(&RdaLayout::of(&w), 8192).count(), 1);
        assert_eq!(m.flags.len(), 16);
        assert!(m.flags.iter().all(|f| f.recovery.is_some()));
        assert_eq!(m.barriers[0].participants.len(), 16);
        assert_eq!(m.workload.len(), 4);
        assert_eq!(m.workload[1].name, "corner_turn");
        // The corner turn moves the whole matrix twice (in and out)
        // and nothing else: no external blocking reads, no posted rows.
        let matrix_bytes = (w.geom.num_pulses * w.geom.num_bins * 8) as f64;
        let ct = &m.workload[1];
        let dma: f64 = ct.work.iter().map(|wd| wd.dma_bytes.lo).sum();
        assert!((dma - 2.0 * matrix_bytes).abs() < 1e-6);
        assert!(ct.work.iter().all(|wd| wd.ext_read_msgs == Bound::zero()));
        assert!(ct.work.iter().all(|wd| wd.ext_write_msgs == Bound::zero()));
        // Tile count matches the driver's tiling.
        let declared: f64 = ct.work.iter().map(|wd| wd.compute_calls.lo).sum();
        let expect = w.geom.num_pulses.div_ceil(TILE) * w.geom.num_bins.div_ceil(TILE);
        assert!((declared - expect as f64).abs() < 1e-6);
        assert_eq!(tiles(w.geom.num_pulses, w.geom.num_bins).count(), expect);
        let run = run(&w, EpiphanyParams::default(), RdaSpmdOptions::default());
        assert_eq!(run.record.phases[1].metrics["tiles"], expect as f64);
        // The tiling covers a matrix ragged on both edges exactly once.
        let (pulses, bins) = (70, 45);
        let mut covered = vec![0u8; pulses * bins];
        for t in tiles(pulses, bins) {
            assert!(t.rows <= TILE && t.cols <= TILE);
            for p in t.pulse0..t.pulse0 + t.rows {
                for b in t.bin0..t.bin0 + t.cols {
                    covered[p * bins + b] += 1;
                }
            }
        }
        assert!(covered.iter().all(|&times| times == 1));
    }

    #[test]
    fn the_azimuth_phase_deals_the_gathers_the_driver_issues() {
        // The model deals the RCMC census; the driver issues each bin's
        // gathers on its owner. Small scale and r0 = 100 m (many cells
        // migrate, the far swath's gathers fall off its end), on 1, 15,
        // 16 and 64 cores.
        let mut close = RdaWorkload::small();
        close.geom.r0 = 100.0;
        for w in [RdaWorkload::small(), close] {
            let migration = MigrationTable::new(&w.geom, w.config.rcmc);
            for (cores, mesh) in [(1, (4, 4)), (15, (8, 8)), (16, (4, 4)), (64, (8, 8))] {
                let mut by_cell = vec![0.0; cores];
                for i in 0..w.geom.num_bins {
                    by_cell[owner(i, cores)] += rcmc_gathers(&migration, i).count() as f64;
                }
                let opts = RdaSpmdOptions { cores: Some(cores) };
                let m = model(&w, &opts, mesh);
                let azimuth = &m.workload[3];
                assert_eq!(azimuth.name, "azimuth");
                let declared: Vec<f64> =
                    azimuth.work.iter().map(|wd| wd.ext_read_msgs.lo).collect();
                assert_eq!(declared, by_cell, "{cores} cores, r0 = {}", w.geom.r0);
            }
        }
    }

    #[test]
    fn rda_spmd_model_respects_the_core_pin_and_the_e64_mesh() {
        let w = RdaWorkload::small();
        let e64 = model(&w, &RdaSpmdOptions::default(), (8, 8));
        assert_eq!(e64.mesh, (8, 8));
        assert_eq!(e64.cores.len(), 64);
        let pinned = model(&w, &RdaSpmdOptions { cores: Some(4) }, (4, 4));
        assert_eq!(pinned.cores, epiphany::Chip::subgrid_on(4, 4, 4));
        // Work totals are invariant under the deal: the same matrix
        // moves whether 4 or 64 cores carry it.
        let total = |m: &ProgramModel, ph: usize| -> f64 {
            m.workload[ph].work.iter().map(|wd| wd.dma_bytes.lo).sum()
        };
        assert!((total(&e64, 1) - total(&pinned, 1)).abs() < 1e-6);
    }
}
