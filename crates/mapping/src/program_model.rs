//! Declarative [`ProgramModel`]s for the registered mappings — the
//! static claims `sarlint` checks without executing a simulation
//! (DESIGN.md §3 S14).
//!
//! Each builder states, for one steady-state round of its driver,
//! exactly what the driver code does: which banks hold which live
//! buffers (`crate::layout`), which producer→consumer channels stream
//! (the same graph `crate::autofocus_net` wires up), and where flags
//! and barriers synchronise. Keeping builder and driver side by side
//! in this crate is the contract: a driver change that moves a buffer
//! or a channel must update its model, and the analyzer (plus the
//! dynamic trace cross-check) catches the drift.

use desim::OpCounts;
use epiphany::{Chip, EpiphanyParams};
use sar_core::autofocus::criterion::{BeamStageOut, RangeStageOut};
use sar_core::autofocus::{beam_stage, correlate_partial, focus_criterion, range_stage};
use sar_core::complex::c32;
use sar_core::ffbp::merge::combine_sample_with_lookup;
use sar_core::ffbp::pipeline::stage0;
use sar_core::image::ComplexImage;
use sar_core::rda::{
    azimuth_compress, azimuth_reference, doppler_spectrum, range_compress_row, rcmc_correct,
    rcmc_shift,
};
use sar_core::signal::{lfm_chirp, MatchedFilter};
use sim_harness::{
    AutofocusWorkload, BarrierDecl, Bound, FfbpWorkload, FlagDecl, Placement, ProgramModel,
    RdaWorkload, TrafficDecl, WorkDecl,
};

use crate::autofocus_ref::AUTOFOCUS_SUSTAINED_IPC;
use crate::autofocus_seq::AUTOFOCUS_PAIRING;
use crate::ffbp_spmd::SpmdOptions;
use crate::layout::{ExternalLayout, RdaLayout, BANK_CHILD_A, BANK_CHILD_B};
use crate::rda_spmd::{transpose_ops, RdaSpmdOptions, TILE};

/// Bytes of one autofocus block in a range core's prefetch bank (a
/// 6x6 block of complex pixels, as DMA'd by the pipeline drivers).
pub const AUTOFOCUS_BLOCK_BYTES: u32 = 288;

/// Op counts of one `combine_sample` call under the workload's
/// interpolation and phase-correction settings. The kernel's counts
/// are data-independent, so a single probe on the first stage-0 pair
/// is exact for every sample of the run — the declaration can never
/// drift from the kernel, because it *is* the kernel.
fn probe_combine_sample(w: &FfbpWorkload) -> OpCounts {
    let stage = stage0(&w.data, &w.geom);
    let (a, b) = (&stage[0], &stage[1]);
    let out_grid = a.grid.refined();
    let mut counts = OpCounts::default();
    combine_sample_with_lookup(
        a,
        b,
        &w.geom,
        w.geom.bin_range(0),
        out_grid.beam_theta(0),
        b.center_y - a.center_y,
        w.config.interp,
        w.config.phase_correct,
        &mut counts,
    );
    counts
}

/// Op counts of the SPMD driver's per-row prefetch geometry probe
/// (one `merge_geometry` call) — also data-independent.
fn probe_merge_geometry() -> OpCounts {
    let mut counts = OpCounts::default();
    sar_core::geometry::merge_geometry(1.0, 0.0, 1.0, &mut counts);
    counts
}

/// Op counts of one hypothesis of the whole staged autofocus
/// criterion (what the sequential drivers charge per hypothesis).
fn probe_focus_criterion(w: &AutofocusWorkload) -> OpCounts {
    let mut counts = OpCounts::default();
    focus_criterion(&w.f_minus, &w.f_plus, 0.0, &w.config, &mut counts);
    counts
}

/// Op counts of one `range_stage`, one `beam_stage` and one
/// `correlate_partial` call — the per-firing work of the three
/// pipeline stages. All three are data-independent.
fn probe_autofocus_stages(w: &AutofocusWorkload) -> (OpCounts, OpCounts, OpCounts) {
    let cfg = &w.config;
    let mut scratch = OpCounts::default();
    let r: [RangeStageOut; 3] = [
        range_stage(&w.f_minus, 0, 0.0, 0, cfg, &mut scratch),
        range_stage(&w.f_minus, 1, 0.0, 0, cfg, &mut scratch),
        range_stage(&w.f_minus, 2, 0.0, 0, cfg, &mut scratch),
    ];
    let mut range_counts = OpCounts::default();
    range_stage(&w.f_minus, 0, 0.0, 0, cfg, &mut range_counts);
    let b: [BeamStageOut; 3] = [
        beam_stage(&r, 0, 0.0, 0, cfg, &mut scratch),
        beam_stage(&r, 1, 0.0, 0, cfg, &mut scratch),
        beam_stage(&r, 2, 0.0, 0, cfg, &mut scratch),
    ];
    let mut beam_counts = OpCounts::default();
    beam_stage(&r, 0, 0.0, 0, cfg, &mut beam_counts);
    let mut corr_counts = OpCounts::default();
    correlate_partial(&b, &b, &mut corr_counts);
    (range_counts, beam_counts, corr_counts)
}

/// FFBP on one Epiphany core: core 0 streams every contributing
/// element from external memory — no prefetch buffers, no channels.
/// `mesh` is the target platform's geometry.
pub fn ffbp_seq_model(w: &FfbpWorkload, mesh: (u16, u16)) -> ProgramModel {
    let mut m = ProgramModel::new(mesh.0, mesh.1);
    m.cores = vec![0];
    let layout = ExternalLayout::new(w.geom.num_pulses as u32, w.geom.num_bins as u32);
    let pixels = w.pixels() as f64;
    let rows = w.geom.num_pulses as f64;
    let beam_bytes = layout.beam_bytes() as f64;
    let per_sample = probe_combine_sample(w);
    let iters = u64::from(w.geom.merge_iterations());

    let mut wd = WorkDecl::new(0);
    wd.exact_ops(per_sample.scaled(w.pixels()));
    wd.compute_calls = Bound::exact(rows);
    // Each output sample fetches its in-swath contributors (of two
    // candidates) with blocking 8 B reads; edge samples can fall out
    // of one or both child swaths.
    wd.ext_read_msgs = Bound::range(0.0, 2.0 * pixels);
    wd.ext_read_bytes = Bound::range(0.0, 16.0 * pixels);
    wd.ext_write_msgs = Bound::exact(rows);
    wd.ext_write_bytes = Bound::exact(rows * beam_bytes);
    let ph = m.phase("merge", iters);
    ph.work.push(wd);
    m
}

/// The SPMD FFBP mapping (§V-A): every core prefetches its two child
/// beams into the upper banks, drains its posted writes behind a
/// per-core flag, and joins the end-of-merge barrier. `mesh` is the
/// target platform's geometry; the model mirrors the driver's sizing —
/// the declared mesh grows to the minimal covering mesh only when the
/// ablation pins more cores than the platform has, and a partial core
/// count occupies a compact subgrid.
pub fn ffbp_spmd_model(w: &FfbpWorkload, opts: &SpmdOptions, mesh: (u16, u16)) -> ProgramModel {
    let n = opts.cores.unwrap_or(mesh.0 as usize * mesh.1 as usize);
    let (cols, rows) = if n <= mesh.0 as usize * mesh.1 as usize {
        mesh
    } else {
        Chip::mesh_for_cores(n)
    };
    let mut m = ProgramModel::new(cols, rows);
    m.cores = Chip::subgrid_on(cols, rows, n);
    let layout = ExternalLayout::new(w.geom.num_pulses as u32, w.geom.num_bins as u32);
    let beam_bytes = u32::try_from(layout.beam_bytes()).expect("beam fits u32");
    for &c in &m.cores {
        if opts.prefetch {
            m.buffers.push(sim_harness::BufferDecl {
                label: format!("child_a[{c}]"),
                core: c,
                bank: BANK_CHILD_A,
                offset: 0,
                bytes: beam_bytes,
            });
            m.buffers.push(sim_harness::BufferDecl {
                label: format!("child_b[{c}]"),
                core: c,
                bank: BANK_CHILD_B,
                offset: 0,
                bytes: beam_bytes,
            });
        }
        // Posted-write drain at end of merge: each core sets and waits
        // its own flag once per round.
        m.flags.push(FlagDecl {
            label: format!("drain[{c}]"),
            setter: c,
            waiter: c,
            sets: 1,
            waits: 1,
            // Lost drains are recovered by redoing the merge iteration
            // from its checkpoint (the SPMD driver's recovery story).
            recovery: Some("checkpoint_restart".to_string()),
        });
    }
    m.barriers.push(BarrierDecl {
        label: "merge_end".to_string(),
        participants: m.cores.clone(),
        arrivals: m.cores.clone(),
    });

    // Workload: rows (output beams) are dealt round-robin over the
    // subgrid, so the core at deal position `p` owns exactly
    // `floor(P/n) + (p < P mod n)` rows per merge iteration.
    let pulses = w.geom.num_pulses;
    let bins = w.geom.num_bins as f64;
    let n_active = m.cores.len();
    let per_sample = probe_combine_sample(w);
    let per_row_probe = probe_merge_geometry();
    let beam_bytes = layout.beam_bytes() as f64;
    let iters = u64::from(w.geom.merge_iterations());
    let cores = m.cores.clone();
    let ph = m.phase("merge", iters);
    for (p, &c) in cores.iter().enumerate() {
        let rows = (pulses / n_active + usize::from(p < pulses % n_active)) as u64;
        let rows_f = rows as f64;
        let mut wd = WorkDecl::new(c);
        let mut ops = per_sample.scaled(rows * w.geom.num_bins as u64);
        ops.add(&per_row_probe.scaled(rows));
        wd.exact_ops(ops);
        wd.compute_calls = Bound::exact(if opts.prefetch { 2.0 * rows_f } else { rows_f });
        if opts.prefetch {
            // Zero to two child beams prefetched per row, depending on
            // which children the mid-range probe lands in.
            wd.dma_msgs = Bound::range(0.0, 2.0 * rows_f);
            wd.dma_bytes = Bound::range(0.0, 2.0 * rows_f * beam_bytes);
        }
        // Every contributing element the prefetch misses is a blocking
        // 8 B external read.
        wd.ext_read_msgs = Bound::range(0.0, 2.0 * rows_f * bins);
        wd.ext_read_bytes = Bound::range(0.0, 16.0 * rows_f * bins);
        wd.ext_write_msgs = Bound::exact(rows_f);
        wd.ext_write_bytes = Bound::exact(rows_f * beam_bytes);
        wd.flag_waits = Bound::exact(1.0); // posted-write drain
        ph.work.push(wd);
    }
    ph.barriers = 1;
    m
}

/// Autofocus on one Epiphany core: one DMA'd block pair in an upper
/// bank, everything else register/stack traffic.
pub fn autofocus_seq_model(w: &AutofocusWorkload, mesh: (u16, u16)) -> ProgramModel {
    let mut m = ProgramModel::new(mesh.0, mesh.1);
    m.cores = vec![0];
    m.buffer("block_pair", 0, BANK_CHILD_A, 0, 2 * AUTOFOCUS_BLOCK_BYTES);
    m.pairing_efficiency = Some(AUTOFOCUS_PAIRING);

    let setup = m.phase("setup", 1);
    let mut wd = WorkDecl::new(0);
    wd.dma_msgs = Bound::exact(1.0);
    wd.dma_bytes = Bound::exact(f64::from(2 * AUTOFOCUS_BLOCK_BYTES));
    setup.work.push(wd);

    let ph = m.phase("hypothesis", w.hypotheses as u64);
    let mut wd = WorkDecl::new(0);
    wd.exact_ops(probe_focus_criterion(w));
    wd.compute_calls = Bound::exact(1.0);
    wd.ext_write_msgs = Bound::exact(1.0);
    wd.ext_write_bytes = Bound::exact(8.0);
    ph.work.push(wd);
    m
}

/// The 13-core autofocus pipeline (§V-B), shared by the hand-written
/// MPMD driver and the `streams` network — both stream the same
/// channel graph over the same placement.
///
/// Buffers: each range core holds its DMA'd source block in an upper
/// bank; each beam core's bank 0 receives three posted range messages
/// per round; the correlator's bank 0 receives six beam messages.
/// Channels: range `(blk, win)` feeds all three beam cores of its
/// block, every beam core feeds the correlator — 24 channels, each
/// with its flag-signalled posted-write protocol.
pub fn autofocus_pipeline_model(
    w: &AutofocusWorkload,
    place: &Placement,
    mesh: (u16, u16),
) -> ProgramModel {
    PipelineProbe::net(w).model(place, mesh)
}

/// The placement-independent half of the pipeline model: per-firing op
/// counts probed from the kernels plus the workload's message
/// geometry. Probing runs the actual stage kernels (the expensive
/// part); [`PipelineProbe::model`] only wires a placement, so a
/// placement search probes once and rebuilds models per candidate
/// cheaply.
pub struct PipelineProbe {
    range_ops: OpCounts,
    beam_ops: OpCounts,
    corr_ops: OpCounts,
    per_it: u32,
    hypotheses: u64,
    /// Flag waits a range core pays per hypothesis (the streams
    /// network's actors wait on command tokens; the hand-written MPMD
    /// driver's range cores never wait).
    range_waits_per_hyp: f64,
    /// Whether every channel carries the MPMD driver's recovery story.
    mpmd_recovery: bool,
}

impl PipelineProbe {
    /// Probe for the `streams` process network (`autofocus_net`).
    pub fn net(w: &AutofocusWorkload) -> PipelineProbe {
        // The streams network waits once per firing — range actors
        // wait on their command tokens too, unlike the hand-written
        // MPMD driver.
        PipelineProbe::probed(w, 3.0, false)
    }

    /// Probe for the hand-written MPMD driver (`autofocus_mpmd`).
    pub fn mpmd(w: &AutofocusWorkload) -> PipelineProbe {
        // The hand-written driver's range cores never wait — they fire
        // as soon as the host loop reaches them.
        PipelineProbe::probed(w, 0.0, true)
    }

    fn probed(
        w: &AutofocusWorkload,
        range_waits_per_hyp: f64,
        mpmd_recovery: bool,
    ) -> PipelineProbe {
        let (range_ops, beam_ops, corr_ops) = probe_autofocus_stages(w);
        PipelineProbe {
            range_ops,
            beam_ops,
            corr_ops,
            per_it: u32::try_from(w.config.samples_per_iteration()).expect("samples fit u32"),
            hypotheses: w.hypotheses as u64,
            range_waits_per_hyp,
            mpmd_recovery,
        }
    }

    /// Wire the probed workload onto `place` (no kernel execution).
    pub fn model(&self, place: &Placement, mesh: (u16, u16)) -> ProgramModel {
        let mut m = pipeline_model_from(self, place, mesh);
        if self.mpmd_recovery {
            let covered = m.declare_recovery("range", "retry_backoff+drain_restart")
                + m.declare_recovery("beam", "retry_backoff+drain_restart");
            debug_assert!(covered > 0, "the pipeline's channels must match");
        }
        m
    }
}

fn pipeline_model_from(probe: &PipelineProbe, place: &Placement, mesh: (u16, u16)) -> ProgramModel {
    let mut m = ProgramModel::new(mesh.0, mesh.1);
    // Placements use canonical E16G3 (4-column) ids; the model mirrors
    // the drivers and renumbers onto the target mesh.
    let place = place.rebased(mesh.0, mesh.1);
    m.cores = place.cores();
    let per_it = probe.per_it;
    let range_msg = 6 * per_it * 8;
    let beam_msg = 3 * per_it * 8;

    for (blk, range_cores) in place.range.iter().enumerate() {
        for (win, &rc) in range_cores.iter().enumerate() {
            m.buffer(
                format!("block{blk}[r{win}]"),
                rc,
                BANK_CHILD_A,
                0,
                AUTOFOCUS_BLOCK_BYTES,
            );
        }
    }
    for (blk, beam_cores) in place.beam.iter().enumerate() {
        for (bi, &bc) in beam_cores.iter().enumerate() {
            for win in 0..3u32 {
                m.buffer(
                    format!("inbox_b{blk}{bi}[r{win}]"),
                    bc,
                    0,
                    win * range_msg,
                    range_msg,
                );
            }
        }
    }
    for slot in 0..6u32 {
        m.buffer(
            format!("inbox_corr[{slot}]"),
            place.corr,
            0,
            slot * beam_msg,
            beam_msg,
        );
    }

    for blk in 0..2 {
        for win in 0..3 {
            for bi in 0..3 {
                m.channel(
                    format!("range{blk}{win}->beam{blk}{bi}"),
                    place.range[blk][win],
                    place.beam[blk][bi],
                );
            }
        }
        for bi in 0..3 {
            m.channel(
                format!("beam{blk}{bi}->corr"),
                place.beam[blk][bi],
                place.corr,
            );
        }
    }

    // Workload: six range-core DMAs up front, then per hypothesis
    // three iterations of range -> beam -> correlate, every stage's
    // per-firing op counts probed from the kernels themselves.
    m.pairing_efficiency = Some(AUTOFOCUS_PAIRING);
    let setup = m.phase("setup", 1);
    for range_cores in &place.range {
        for &rc in range_cores {
            let mut wd = WorkDecl::new(rc);
            wd.dma_msgs = Bound::exact(1.0);
            wd.dma_bytes = Bound::exact(f64::from(AUTOFOCUS_BLOCK_BYTES));
            setup.work.push(wd);
        }
    }
    let ph = m.phase("hypothesis", probe.hypotheses);
    for (blk, range_cores) in place.range.iter().enumerate() {
        for &rc in range_cores {
            let mut wd = WorkDecl::new(rc);
            wd.exact_ops(probe.range_ops.scaled(3));
            wd.compute_calls = Bound::exact(3.0);
            wd.flag_waits = Bound::exact(probe.range_waits_per_hyp);
            ph.work.push(wd);
            for &bc in &place.beam[blk] {
                ph.traffic.push(TrafficDecl {
                    from: rc,
                    to: bc,
                    messages: Bound::exact(3.0),
                    bytes: Bound::exact(3.0 * f64::from(range_msg)),
                });
            }
        }
    }
    for beam_cores in &place.beam {
        for &bc in beam_cores {
            let mut wd = WorkDecl::new(bc);
            wd.exact_ops(probe.beam_ops.scaled(3));
            wd.compute_calls = Bound::exact(3.0);
            wd.flag_waits = Bound::exact(3.0);
            ph.work.push(wd);
            ph.traffic.push(TrafficDecl {
                from: bc,
                to: place.corr,
                messages: Bound::exact(3.0),
                bytes: Bound::exact(3.0 * f64::from(beam_msg)),
            });
        }
    }
    let mut wd = WorkDecl::new(place.corr);
    wd.exact_ops(probe.corr_ops.scaled(3));
    wd.compute_calls = Bound::exact(3.0);
    wd.flag_waits = Bound::exact(3.0);
    wd.ext_write_msgs = Bound::exact(1.0);
    wd.ext_write_bytes = Bound::exact(8.0);
    ph.work.push(wd);
    m
}

/// [`autofocus_pipeline_model`] as the hand-written MPMD driver
/// actually runs it: every channel (and its protocol flag) is covered
/// by the driver's recovery story — watchdog retry on a lost flag,
/// then drain-and-restart of the hypothesis with a spare-core remap
/// if the peer has halted. The `streams` network keeps the plain
/// (undeclared) model, so `sarlint` flags its channels as
/// recovery-free (SL011/SL012).
pub fn autofocus_mpmd_model(
    w: &AutofocusWorkload,
    place: &Placement,
    mesh: (u16, u16),
) -> ProgramModel {
    PipelineProbe::mpmd(w).model(place, mesh)
}

/// Per-unit op ledgers of the three RDA pipeline stages, probed by
/// running the stage kernels themselves once. All three are
/// data-independent (the `sar_core::rda` tests pin that), so a single
/// probe per stage is exact for every row/bin of the run.
struct RdaStageProbe {
    per_range_row: OpCounts,
    per_doppler_bin: OpCounts,
    per_azimuth_bin: OpCounts,
}

fn probe_rda_stages(w: &RdaWorkload) -> RdaStageProbe {
    let n = w.geom.num_pulses;
    let bins = w.geom.num_bins;
    let waveform = lfm_chirp(w.config.chirp);
    let mf = MatchedFilter::new(&waveform, w.raw.cols());
    let mut per_range_row = OpCounts::default();
    range_compress_row(&mf, w.raw.row(0), bins, &mut per_range_row);
    let mut per_doppler_bin = OpCounts::default();
    doppler_spectrum(&vec![c32::ZERO; n], &mut per_doppler_bin);
    let rd = ComplexImage::zeros(bins, n);
    let mut per_azimuth_bin = OpCounts::default();
    let corrected = rcmc_correct(&rd, &w.geom, 0, w.config.rcmc, &mut per_azimuth_bin);
    let href = azimuth_reference(&w.geom, 0, &mut per_azimuth_bin);
    azimuth_compress(&corrected, &href, &mut per_azimuth_bin);
    RdaStageProbe {
        per_range_row,
        per_doppler_bin,
        per_azimuth_bin,
    }
}

/// Exact RCMC gather count per bin — the blocking external reads the
/// azimuth phase issues for migration cells that land on deeper
/// in-swath rows, computed exactly as the drivers compute them.
fn rcmc_gathers_per_bin(w: &RdaWorkload) -> Vec<u64> {
    let n = w.geom.num_pulses;
    let bins = w.geom.num_bins;
    (0..bins)
        .map(|i| {
            if !w.config.rcmc {
                return 0;
            }
            (0..n)
                .filter(|&m| {
                    let d = rcmc_shift(&w.geom, i, m);
                    d > 0 && i + d < bins
                })
                .count() as u64
        })
        .collect()
}

/// RDA on one Epiphany core: three phases over the [`RdaLayout`]
/// regions, every input sample a blocking 8 B external read, every
/// result row a posted external write — no DMA, flags or barriers.
pub fn rda_seq_model(w: &RdaWorkload, mesh: (u16, u16)) -> ProgramModel {
    let mut m = ProgramModel::new(mesh.0, mesh.1);
    m.cores = vec![0];
    let layout = RdaLayout::new(
        w.geom.num_pulses as u32,
        w.geom.num_bins as u32,
        w.raw.cols() as u32,
    );
    let probe = probe_rda_stages(w);
    let pulses = w.geom.num_pulses as u64;
    let bins = w.geom.num_bins as u64;
    let echo = w.raw.cols() as u64;
    let gathers: u64 = rcmc_gathers_per_bin(w).iter().sum();

    let ph = m.phase("range", 1);
    let mut wd = WorkDecl::new(0);
    wd.exact_ops(probe.per_range_row.scaled(pulses));
    wd.compute_calls = Bound::exact(pulses as f64);
    wd.ext_read_msgs = Bound::exact((pulses * echo) as f64);
    wd.ext_read_bytes = Bound::exact((8 * pulses * echo) as f64);
    wd.ext_write_msgs = Bound::exact(pulses as f64);
    wd.ext_write_bytes = Bound::exact((pulses * layout.rc_row_bytes()) as f64);
    ph.work.push(wd);

    // The corner turn a single core pays as strided pointwise reads.
    let ph = m.phase("doppler", 1);
    let mut wd = WorkDecl::new(0);
    wd.exact_ops(probe.per_doppler_bin.scaled(bins));
    wd.compute_calls = Bound::exact(bins as f64);
    wd.ext_read_msgs = Bound::exact((bins * pulses) as f64);
    wd.ext_read_bytes = Bound::exact((8 * bins * pulses) as f64);
    wd.ext_write_msgs = Bound::exact(bins as f64);
    wd.ext_write_bytes = Bound::exact((bins * layout.col_bytes()) as f64);
    ph.work.push(wd);

    let ph = m.phase("azimuth", 1);
    let mut wd = WorkDecl::new(0);
    wd.exact_ops(probe.per_azimuth_bin.scaled(bins));
    wd.compute_calls = Bound::exact(bins as f64);
    wd.ext_read_msgs = Bound::exact((bins * pulses + gathers) as f64);
    wd.ext_read_bytes = Bound::exact((8 * (bins * pulses + gathers)) as f64);
    wd.ext_write_msgs = Bound::exact(bins as f64);
    wd.ext_write_bytes = Bound::exact((bins * layout.col_bytes()) as f64);
    ph.work.push(wd);
    m
}

/// The SPMD RDA mapping: four phases with work units dealt round-robin
/// over the subgrid. Each core stages DMA landings (raw pulse rows,
/// corner-turn tiles, bin-major rows) in its two upper banks — the
/// model declares them bank-sized, since the raw-row head and the
/// paper-scale bin-major rows fill one whole bank. Every phase drains
/// its posted writes behind a per-core flag and ends on a barrier, and
/// a lost core is recovered by redoing the phase from its input region
/// (checkpoint/restart).
pub fn rda_spmd_model(w: &RdaWorkload, opts: &RdaSpmdOptions, mesh: (u16, u16)) -> ProgramModel {
    let n_req = opts.cores.unwrap_or(mesh.0 as usize * mesh.1 as usize);
    let (cols, rows) = if n_req <= mesh.0 as usize * mesh.1 as usize {
        mesh
    } else {
        Chip::mesh_for_cores(n_req)
    };
    let mut m = ProgramModel::new(cols, rows);
    m.cores = Chip::subgrid_on(cols, rows, n_req);
    let bank = EpiphanyParams::default().sram.bank_bytes;
    let layout = RdaLayout::new(
        w.geom.num_pulses as u32,
        w.geom.num_bins as u32,
        w.raw.cols() as u32,
    );
    let probe = probe_rda_stages(w);
    let gathers = rcmc_gathers_per_bin(w);
    let pulses = w.geom.num_pulses;
    let bins = w.geom.num_bins;
    let nc = m.cores.len();

    let raw_row = layout.raw_row_bytes();
    let cores = m.cores.clone();
    for &c in &cores {
        // Bank A receives every inbound landing: raw-row heads,
        // corner-turn tiles and bin-major rows. Bank B only ever
        // receives the raw-row *tail*, which exists when the row
        // overflows one bank (it does at paper scale); the corner
        // turn's outbound tile is staged there but written locally,
        // never landed.
        m.buffer(format!("stage_a[{c}]"), c, BANK_CHILD_A, 0, bank);
        if raw_row > u64::from(bank) {
            #[allow(clippy::cast_possible_truncation)]
            let tail = (raw_row - u64::from(bank)) as u32;
            m.buffer(format!("raw_tail[{c}]"), c, BANK_CHILD_B, 0, tail);
        }
        m.flags.push(FlagDecl {
            label: format!("drain[{c}]"),
            setter: c,
            waiter: c,
            sets: 1,
            waits: 1,
            // A lost drain is recovered by redoing the phase from its
            // intact input region.
            recovery: Some("checkpoint_restart".to_string()),
        });
    }
    m.barriers.push(BarrierDecl {
        label: "phase_end".to_string(),
        participants: cores.clone(),
        arrivals: cores.clone(),
    });

    // Phase 1: one raw pulse row DMA'd in per owned pulse (two
    // descriptors when the row overflows one bank), the compressed row
    // posted back.
    let descs_per_row = if raw_row > u64::from(bank) { 2.0 } else { 1.0 };
    let ph = m.phase("range", 1);
    for (p, &c) in cores.iter().enumerate() {
        let owned_rows = (pulses / nc + usize::from(p < pulses % nc)) as u64;
        let owned = owned_rows as f64;
        let mut wd = WorkDecl::new(c);
        wd.exact_ops(probe.per_range_row.scaled(owned_rows));
        wd.compute_calls = Bound::exact(owned);
        wd.dma_msgs = Bound::exact(descs_per_row * owned);
        wd.dma_bytes = Bound::exact(owned * raw_row as f64);
        wd.ext_write_msgs = Bound::exact(owned);
        wd.ext_write_bytes = Bound::exact(owned * layout.rc_row_bytes() as f64);
        wd.flag_waits = Bound::exact(1.0);
        ph.work.push(wd);
    }
    ph.barriers = 1;

    // Phase 2: the tiled corner turn — per owned tile one strided 2D
    // DMA in, a local transpose, one strided 2D DMA out. Pure traffic.
    let tile_rows = pulses.div_ceil(TILE);
    let tile_cols = bins.div_ceil(TILE);
    let mut tiles_per = vec![0u64; nc];
    let mut elems_per = vec![0u64; nc];
    let mut task = 0usize;
    for ti in 0..tile_rows {
        for tj in 0..tile_cols {
            let p = task % nc;
            task += 1;
            let r = TILE.min(pulses - ti * TILE);
            let c = TILE.min(bins - tj * TILE);
            tiles_per[p] += 1;
            elems_per[p] += (r * c) as u64;
        }
    }
    let ph = m.phase("corner_turn", 1);
    for (p, &c) in cores.iter().enumerate() {
        let mut wd = WorkDecl::new(c);
        wd.exact_ops(transpose_ops(elems_per[p]));
        wd.compute_calls = Bound::exact(tiles_per[p] as f64);
        wd.dma_msgs = Bound::exact(2.0 * tiles_per[p] as f64);
        wd.dma_bytes = Bound::exact(2.0 * 8.0 * elems_per[p] as f64);
        wd.flag_waits = Bound::exact(1.0);
        ph.work.push(wd);
    }
    ph.barriers = 1;

    // Phases 3 and 4: bin-major rows dealt round-robin; the azimuth
    // phase additionally issues its exact per-bin RCMC gathers as
    // blocking 8 B reads.
    let col_bytes = layout.col_bytes() as f64;
    let ph = m.phase("doppler", 1);
    for (p, &c) in cores.iter().enumerate() {
        let owned_bins = (bins / nc + usize::from(p < bins % nc)) as u64;
        let owned = owned_bins as f64;
        let mut wd = WorkDecl::new(c);
        wd.exact_ops(probe.per_doppler_bin.scaled(owned_bins));
        wd.compute_calls = Bound::exact(owned);
        wd.dma_msgs = Bound::exact(owned);
        wd.dma_bytes = Bound::exact(owned * col_bytes);
        wd.ext_write_msgs = Bound::exact(owned);
        wd.ext_write_bytes = Bound::exact(owned * col_bytes);
        wd.flag_waits = Bound::exact(1.0);
        ph.work.push(wd);
    }
    ph.barriers = 1;

    let ph = m.phase("azimuth", 1);
    for (p, &c) in cores.iter().enumerate() {
        let owned_bins = (bins / nc + usize::from(p < bins % nc)) as u64;
        let owned = owned_bins as f64;
        let g: u64 = gathers.iter().skip(p).step_by(nc).sum();
        let mut wd = WorkDecl::new(c);
        wd.exact_ops(probe.per_azimuth_bin.scaled(owned_bins));
        wd.compute_calls = Bound::exact(owned);
        wd.dma_msgs = Bound::exact(owned);
        wd.dma_bytes = Bound::exact(owned * col_bytes);
        wd.ext_read_msgs = Bound::exact(g as f64);
        wd.ext_read_bytes = Bound::exact(8.0 * g as f64);
        wd.ext_write_msgs = Bound::exact(owned);
        wd.ext_write_bytes = Bound::exact(owned * col_bytes);
        wd.flag_waits = Bound::exact(1.0);
        ph.work.push(wd);
    }
    ph.barriers = 1;
    m
}

/// FFBP on the single-core reference CPU: no mesh, no banks — the
/// model exists purely for its workload declarations, so the cost
/// model can bracket the i7 rows of Table I too.
pub fn ffbp_ref_model(w: &FfbpWorkload) -> ProgramModel {
    let mut m = ProgramModel::new(1, 1);
    m.cores = vec![0];
    let pixels = w.pixels() as f64;
    let rows = w.geom.num_pulses as f64;
    let per_sample = probe_combine_sample(w);
    let ph = m.phase("merge", u64::from(w.geom.merge_iterations()));
    let mut wd = WorkDecl::new(0);
    wd.exact_ops(per_sample.scaled(w.pixels()));
    wd.compute_calls = Bound::exact(rows);
    // Per sample: one 8 B result write always, plus zero to two
    // in-swath demand reads — each touching one cache line.
    wd.mem_accesses = Bound::range(pixels, 3.0 * pixels);
    ph.work.push(wd);
    m
}

/// Autofocus on the single-core reference CPU.
pub fn autofocus_ref_model(w: &AutofocusWorkload) -> ProgramModel {
    let mut m = ProgramModel::new(1, 1);
    m.cores = vec![0];
    m.sustained_ipc = Some(AUTOFOCUS_SUSTAINED_IPC);
    let setup = m.phase("setup", 1);
    let mut wd = WorkDecl::new(0);
    // Two 288 B block reads, five 64 B lines each.
    wd.mem_accesses = Bound::exact(10.0);
    setup.work.push(wd);
    let ph = m.phase("hypothesis", w.hypotheses as u64);
    let mut wd = WorkDecl::new(0);
    wd.exact_ops(probe_focus_criterion(w));
    wd.compute_calls = Bound::exact(1.0);
    wd.mem_accesses = Bound::exact(1.0); // the 8 B criterion write-back
    ph.work.push(wd);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmd_model_declares_the_paper_footprint() {
        let w = FfbpWorkload::paper();
        let m = ffbp_spmd_model(&w, &SpmdOptions::default(), (4, 4));
        assert_eq!(m.mesh, (4, 4));
        assert_eq!(m.cores.len(), 16);
        // Two 8,008 B beams per core, one per upper bank (§V-A).
        assert_eq!(m.buffers.len(), 32);
        assert!(m.buffers.iter().all(|b| b.bytes == 8008));
        assert!(m
            .buffers
            .iter()
            .all(|b| b.bank == BANK_CHILD_A || b.bank == BANK_CHILD_B));
        assert_eq!(m.barriers.len(), 1);
        assert_eq!(m.barriers[0].participants.len(), 16);
    }

    #[test]
    fn spmd_model_without_prefetch_has_no_buffers() {
        let w = FfbpWorkload::small();
        let m = ffbp_spmd_model(
            &w,
            &SpmdOptions {
                prefetch: false,
                ..SpmdOptions::default()
            },
            (4, 4),
        );
        assert!(m.buffers.is_empty());
    }

    #[test]
    fn spmd_model_scales_to_the_e64_mesh() {
        let w = FfbpWorkload::small();
        let m = ffbp_spmd_model(&w, &SpmdOptions::default(), (8, 8));
        assert_eq!(m.mesh, (8, 8));
        assert_eq!(m.cores.len(), 64);
        assert_eq!(m.buffers.len(), 128);
        assert_eq!(m.barriers[0].participants.len(), 64);
        // A pinned 16-core ablation on the E64 occupies the 4x4
        // corner subgrid, exactly as the driver places it.
        let sub = ffbp_spmd_model(
            &w,
            &SpmdOptions {
                cores: Some(16),
                ..SpmdOptions::default()
            },
            (8, 8),
        );
        assert_eq!(sub.mesh, (8, 8));
        assert_eq!(sub.cores, Chip::subgrid_on(8, 8, 16));
        // Over-subscription falls back to the minimal covering mesh.
        let big = ffbp_spmd_model(
            &w,
            &SpmdOptions {
                cores: Some(32),
                ..SpmdOptions::default()
            },
            (4, 4),
        );
        assert_eq!(big.mesh, (8, 4));
        assert_eq!(big.cores.len(), 32);
    }

    #[test]
    fn mpmd_model_declares_recovery_on_every_channel_and_flag() {
        let w = AutofocusWorkload::small();
        let plain = autofocus_pipeline_model(&w, &Placement::neighbor(), (4, 4));
        assert!(
            plain.channels.iter().all(|c| c.recovery.is_none()),
            "the shared pipeline model stays recovery-free (the streams net has none)"
        );
        let m = autofocus_mpmd_model(&w, &Placement::neighbor(), (4, 4));
        assert!(m.channels.iter().all(|c| c.recovery.is_some()));
        assert!(m.flags.iter().all(|f| f.recovery.is_some()));
    }

    #[test]
    fn pipeline_model_matches_the_dataflow() {
        let w = AutofocusWorkload::small();
        let m = autofocus_pipeline_model(&w, &Placement::neighbor(), (4, 4));
        assert_eq!(m.cores.len(), 13);
        // 18 range->beam + 6 beam->corr channels, one flag each.
        assert_eq!(m.channels.len(), 24);
        assert_eq!(m.flags.len(), 24);
        // 6 range blocks + 18 beam inboxes + 6 correlator inboxes.
        assert_eq!(m.buffers.len(), 30);
        // Message sizes follow samples_per_iteration (48/3 = 16).
        assert!(m.buffers.iter().any(|b| b.bytes == 6 * 16 * 8));
        assert!(m.buffers.iter().any(|b| b.bytes == 3 * 16 * 8));
        assert!(m.barriers.is_empty());
    }

    #[test]
    fn rda_seq_model_declares_every_input_sample_as_a_blocking_read() {
        let w = RdaWorkload::small();
        let m = rda_seq_model(&w, (4, 4));
        assert_eq!(m.cores, vec![0]);
        assert!(m.buffers.is_empty() && m.flags.is_empty() && m.barriers.is_empty());
        assert_eq!(m.workload.len(), 3);
        let names: Vec<&str> = m.workload.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["range", "doppler", "azimuth"]);
        // The range phase reads the whole raw matrix, once.
        let range = &m.workload[0].work[0];
        let raw_samples = (w.raw.rows() * w.raw.cols()) as f64;
        assert_eq!(range.ext_read_msgs, Bound::exact(raw_samples));
        assert_eq!(range.ext_read_bytes, Bound::exact(8.0 * raw_samples));
        // The azimuth phase reads at least the full bin-major matrix
        // (plus the exact RCMC gathers).
        let matrix = (w.geom.num_pulses * w.geom.num_bins) as f64;
        let az = &m.workload[2].work[0];
        assert!(az.ext_read_msgs.lo >= matrix);
        assert_eq!(az.ext_read_msgs.lo, az.ext_read_msgs.hi);
    }

    #[test]
    fn rda_spmd_model_declares_the_staging_banks_and_the_corner_turn() {
        let w = RdaWorkload::small();
        let m = rda_spmd_model(&w, &RdaSpmdOptions::default(), (4, 4));
        assert_eq!(m.cores.len(), 16);
        // One bank-sized staging buffer per core at small scale (raw
        // rows fit one bank); the paper-scale rows overflow into the
        // second upper bank, adding a tail buffer per core.
        assert_eq!(m.buffers.len(), 16);
        assert!(m.buffers.iter().all(|b| b.bank == BANK_CHILD_A));
        let paper = rda_spmd_model(&RdaWorkload::paper(), &RdaSpmdOptions::default(), (4, 4));
        assert_eq!(paper.buffers.len(), 32);
        assert!(paper
            .buffers
            .iter()
            .all(|b| b.bank == BANK_CHILD_A || b.bank == BANK_CHILD_B));
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
        let tiles: f64 = ct.work.iter().map(|wd| wd.compute_calls.lo).sum();
        let expect = w.geom.num_pulses.div_ceil(TILE) * w.geom.num_bins.div_ceil(TILE);
        assert!((tiles - expect as f64).abs() < 1e-6);
    }

    #[test]
    fn rda_spmd_model_respects_the_core_pin_and_the_e64_mesh() {
        let w = RdaWorkload::small();
        let e64 = rda_spmd_model(&w, &RdaSpmdOptions::default(), (8, 8));
        assert_eq!(e64.mesh, (8, 8));
        assert_eq!(e64.cores.len(), 64);
        let pinned = rda_spmd_model(&w, &RdaSpmdOptions { cores: Some(4) }, (4, 4));
        assert_eq!(pinned.cores, Chip::subgrid_on(4, 4, 4));
        // Work totals are invariant under the deal: the same matrix
        // moves whether 4 or 64 cores carry it.
        let total = |m: &ProgramModel, ph: usize| -> f64 {
            m.workload[ph].work.iter().map(|wd| wd.dma_bytes.lo).sum()
        };
        assert!((total(&e64, 1) - total(&pinned, 1)).abs() < 1e-6);
    }

    #[test]
    fn pipeline_model_rebases_the_placement_onto_bigger_meshes() {
        let w = AutofocusWorkload::small();
        let e16 = autofocus_pipeline_model(&w, &Placement::neighbor(), (4, 4));
        let e64 = autofocus_pipeline_model(&w, &Placement::neighbor(), (8, 8));
        assert_eq!(e64.mesh, (8, 8));
        assert_eq!(e64.cores.len(), 13);
        // Same channel graph, and every channel spans the same hop
        // count on both meshes (the rebase preserves coordinates).
        assert_eq!(e64.channels.len(), e16.channels.len());
        for (a, b) in e16.channels.iter().zip(&e64.channels) {
            assert_eq!(a.label, b.label);
            assert_eq!(
                e16.manhattan(a.from, a.to),
                e64.manhattan(b.from, b.to),
                "channel {} changed hop count",
                a.label
            );
        }
    }
}
