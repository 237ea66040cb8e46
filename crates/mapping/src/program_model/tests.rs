use epiphany::{Chip, EpiphanyParams};
use sar_core::rda::MigrationTable;
use sim_harness::{AutofocusWorkload, Bound, Placement, ProgramModel, RdaWorkload, RunContext};

use crate::layout::{RdaLayout, BANK_CHILD_A, BANK_CHILD_B};
use crate::pipeline::{edges, Stage};
use crate::rda_spmd::{RdaSpmdOptions, TILE};
use crate::{autofocus_mpmd, autofocus_net, rda_seq, rda_spmd};

#[test]
fn mpmd_model_declares_recovery_on_every_channel_and_flag() {
    let w = AutofocusWorkload::small();
    let plain = autofocus_net::model(&w, &Placement::neighbor(), (4, 4));
    assert!(
        plain.channels.iter().all(|c| c.recovery.is_none()),
        "the shared pipeline model stays recovery-free (the streams net has none)"
    );
    let m = autofocus_mpmd::model(&w, &Placement::neighbor(), (4, 4));
    assert!(m.channels.iter().all(|c| c.recovery.is_some()));
    assert!(m.flags.iter().all(|f| f.recovery.is_some()));
}

#[test]
fn pipeline_model_matches_the_dataflow() {
    let w = AutofocusWorkload::small();
    let m = autofocus_net::model(&w, &Placement::neighbor(), (4, 4));
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

    // The channels are the pipeline's edges, in edge order, on the
    // placement's cores.
    let place = Placement::neighbor();
    let edges: Vec<(Stage, Stage)> = edges().collect();
    assert_eq!(edges.len(), 24);
    for (channel, (from, to)) in m.channels.iter().zip(&edges) {
        assert_eq!(channel.label, format!("{from}->{to}"));
        assert_eq!(
            (channel.from, channel.to),
            (from.core(&place), to.core(&place))
        );
    }
    // A consumer's input ports number its edges in that order — what
    // `autofocus_net`'s actors rely on: each beam interpolator receives
    // its block's range windows 0, 1, 2, and the correlator's six ports
    // are block-major.
    let producers = |to: Stage| -> Vec<Stage> {
        let into = edges.iter().filter(|(_, t)| *t == to);
        into.map(|(from, _)| *from).collect()
    };
    for blk in 0..2 {
        for win in 0..3 {
            assert_eq!(
                producers(Stage::Beam { blk, win }),
                [0, 1, 2].map(|win| Stage::Range { blk, win })
            );
        }
    }
    assert_eq!(
        producers(Stage::Corr),
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)].map(|(blk, win)| Stage::Beam { blk, win })
    );
}

#[test]
fn rda_seq_model_declares_every_input_sample_as_a_blocking_read() {
    let w = RdaWorkload::small();
    let m = rda_seq::model(&w, (4, 4));
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
    // The surplus is exactly the RCMC gathers, and exactly what the
    // driver issues in its azimuth phase.
    let migration = MigrationTable::new(&w.geom, w.config.rcmc);
    let gathers: usize = (0..w.geom.num_bins)
        .map(|i| rda_seq::rcmc_gathers(&migration, i).count())
        .sum();
    assert!(gathers > 0, "the small scene migrates");
    assert_eq!(az.ext_read_msgs.lo, matrix + gathers as f64);
    let run = rda_seq::run(&w, EpiphanyParams::default(), &RunContext::plain());
    let issued = run.record.phases[2].metrics["ext_read"];
    assert_eq!(issued, az.ext_read_msgs.lo);
}

#[test]
fn rda_spmd_model_declares_the_staging_banks_and_the_corner_turn() {
    let w = RdaWorkload::small();
    let m = rda_spmd::model(&w, &RdaSpmdOptions::default(), (4, 4));
    assert_eq!(m.cores.len(), 16);
    // One bank-sized staging buffer per core at small scale (raw
    // rows fit one bank); the paper-scale rows overflow into the
    // second upper bank, adding a tail buffer per core.
    assert_eq!(m.buffers.len(), 16);
    assert!(m.buffers.iter().all(|b| b.bank == BANK_CHILD_A));
    let paper = rda_spmd::model(&RdaWorkload::paper(), &RdaSpmdOptions::default(), (4, 4));
    assert_eq!(paper.buffers.len(), 32);
    assert!(paper
        .buffers
        .iter()
        .all(|b| b.bank == BANK_CHILD_A || b.bank == BANK_CHILD_B));
    // The tail is what the driver's second descriptor per raw row
    // lands: a 9,032 B row splits at the 8 KB bank edge, sample 1024.
    let paper_layout = RdaLayout::of(&RdaWorkload::paper());
    let parts: Vec<_> = rda_spmd::raw_row_parts(&paper_layout, 8192).collect();
    assert_eq!(parts, [(0, BANK_CHILD_A, 8192), (1024, BANK_CHILD_B, 840)]);
    assert!(paper
        .buffers
        .iter()
        .any(|b| (b.bank, b.bytes) == (BANK_CHILD_B, 840)));
    assert_eq!(rda_spmd::raw_row_parts(&RdaLayout::of(&w), 8192).count(), 1);
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
    assert_eq!(
        rda_spmd::tiles(w.geom.num_pulses, w.geom.num_bins).count(),
        expect
    );
    let run = rda_spmd::run(
        &w,
        EpiphanyParams::default(),
        RdaSpmdOptions::default(),
        &RunContext::plain(),
    );
    assert_eq!(run.record.phases[1].metrics["tiles"], expect as f64);
    // The tiling covers a matrix ragged on both edges exactly once.
    let (pulses, bins) = (70, 45);
    let mut covered = vec![0u8; pulses * bins];
    for t in rda_spmd::tiles(pulses, bins) {
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
fn rda_spmd_model_respects_the_core_pin_and_the_e64_mesh() {
    let w = RdaWorkload::small();
    let e64 = rda_spmd::model(&w, &RdaSpmdOptions::default(), (8, 8));
    assert_eq!(e64.mesh, (8, 8));
    assert_eq!(e64.cores.len(), 64);
    let pinned = rda_spmd::model(&w, &RdaSpmdOptions { cores: Some(4) }, (4, 4));
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
    let e16 = autofocus_net::model(&w, &Placement::neighbor(), (4, 4));
    let e64 = autofocus_net::model(&w, &Placement::neighbor(), (8, 8));
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
