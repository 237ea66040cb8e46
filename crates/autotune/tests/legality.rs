//! The evaluator prices a candidate by rewiring one model and asking
//! the `SL005` rule directly. Over every move the search can take from
//! the hand placements, that must agree with what the analyzer sees:
//! the same legality verdict as the lint's report on a freshly built
//! model, and, after any sequence of rewirings, the same model bytes.

use autotune::{Evaluator, PlacementSpace};
use sar_epiphany::pipeline::PipelineProbe;
use sim_harness::{Placement, Report, Workload};

#[test]
fn the_evaluator_admits_what_the_lint_admits_on_a_model_built_afresh() {
    let w = Workload::named("autofocus", true).expect("registered");
    let w = w.autofocus().expect("an autofocus workload");
    let both = [Placement::neighbor(), Placement::scattered()];
    for (mapping, probe) in [
        ("autofocus_mpmd", PipelineProbe::mpmd(w)),
        ("autofocus_net", PipelineProbe::net(w)),
    ] {
        for (platform, mesh, starts) in
            [("epiphany", (4, 4), &both[..]), ("e64", (8, 8), &both[..1])]
        {
            let pair = format!("{mapping}:{platform}");
            let evaluator = Evaluator::for_pair(&pair, true).expect("tunable");
            let space = PlacementSpace::for_mesh(mesh);
            let mut rewired = probe.model(&Placement::neighbor(), mesh);
            let mut verdicts = [0; 2];
            for start in starts {
                for mv in space.moves(start) {
                    let place = PlacementSpace::apply(start, mv);
                    let fresh = probe.model(&place, mesh);
                    let mut report = Report::new();
                    sarlint::placement::check(&fresh, &mut report);
                    let admitted = evaluator.evaluate(&place).is_some();
                    assert_eq!(admitted, report.hard_count() == 0, "{pair} {mv:?}");
                    verdicts[usize::from(admitted)] += 1;
                    probe.rewire(&mut rewired, &place);
                    assert_eq!(
                        format!("{rewired:?}"),
                        format!("{fresh:?}"),
                        "{pair} {mv:?}"
                    );
                }
            }
            assert!(verdicts.iter().all(|&n| n > 0), "{pair}: {verdicts:?}");
        }
    }
}
