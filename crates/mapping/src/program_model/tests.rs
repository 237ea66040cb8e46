use sar_core::autofocus::Stage;
use sim_harness::{AutofocusWorkload, Placement};

use crate::pipeline::{core_of, edges};
use crate::{autofocus_mpmd, autofocus_net};

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
            (core_of(*from, &place), core_of(*to, &place))
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
