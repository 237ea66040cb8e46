//! `sarlint` — the static mapping analyzer (DESIGN.md §3 S14).
//!
//! A mapping exports a declarative [`ProgramModel`] (its buffers,
//! channels, flags and barriers); this crate checks the model against
//! the platform's memory geometry and the mesh *without executing the
//! simulation*:
//!
//! | check | codes | catches |
//! |---|---|---|
//! | [`capacity`] | `SL001`, `SL002` | bank overflow, buffer overlap |
//! | [`deadlock`] | `SL003`, `SL004` | channel-graph cycles, starved credits |
//! | [`placement`] | `SL005` | scattered stages (> [`HOP_BUDGET`] hops) |
//! | [`races`] | `SL006`–`SL008` | unmatched flags, barrier mismatch |
//! | [`recovery`] | `SL011`, `SL012` | channels/flags with no fault-recovery story |
//!
//! [`dynamic::cross_check`] closes the loop: one traced run, every
//! observed remote landing checked against the declared buffers
//! (`SL009`/`SL010`). Mappings without a model (host threads, the
//! reference CPU) report an `SL000` note — nothing claimed, nothing
//! checked.
//!
//! Findings are [`sim_harness::Diagnostic`]s in a [`Report`]; a *hard*
//! diagnostic means the pair must not be simulated (the `run` binary's
//! `--analyze` gate refuses), a *warning* is a cost smell, a *note* is
//! informational.

#![forbid(unsafe_code)]

pub mod capacity;
pub mod cost;
pub mod deadlock;
pub mod dynamic;
pub mod placement;
pub mod races;
pub mod recovery;

use memsim::SramParams;
use sim_harness::{Mapping, Platform, ProgramModel, Report, Workload};

pub use placement::HOP_BUDGET;
pub use sim_harness::{Diagnostic, Severity};

/// Run all five static checks on a model against `sram` geometry.
pub fn analyze_model(model: &ProgramModel, sram: &SramParams) -> Report {
    let mut report = Report::new();
    capacity::check(model, sram, &mut report);
    deadlock::check(model, &mut report);
    placement::check(model, &mut report);
    races::check(model, &mut report);
    recovery::check(model, &mut report);
    report
}

/// The program model of a Mapping × Platform pair: `None` for an
/// unsupported pair or a mapping that exports none. A caller that runs
/// several checks on one pair resolves it once and hands it to
/// [`analyze_pair_with`], [`cost::cost_pair_with`] and
/// [`dynamic::cross_check_with`].
pub fn pair_model(
    mapping: &dyn Mapping,
    workload: &Workload,
    platform: &dyn Platform,
) -> Option<ProgramModel> {
    mapping
        .supports(platform.kind())
        .then(|| mapping.program_model(workload, platform))
        .flatten()
}

/// Analyze one registered Mapping × Platform pair: resolve the model,
/// pick the platform's SRAM geometry (default geometry for machines
/// without banked local stores) and run the static checks. Unsupported
/// pairs and model-less mappings report an `SL000` note.
pub fn analyze_pair(mapping: &dyn Mapping, workload: &Workload, platform: &dyn Platform) -> Report {
    analyze_pair_with(
        mapping,
        platform,
        pair_model(mapping, workload, platform).as_ref(),
    )
}

/// [`analyze_pair`] with the pair's already-resolved [`pair_model`].
pub fn analyze_pair_with(
    mapping: &dyn Mapping,
    platform: &dyn Platform,
    model: Option<&ProgramModel>,
) -> Report {
    let mut report = Report::new();
    let subject = format!("{} x {}", mapping.name(), platform.label());
    if !mapping.supports(platform.kind()) {
        let message = "pair is not supported; nothing to analyze";
        report.push(Diagnostic::note("SL000", subject, message));
        return report;
    }
    let Some(model) = model else {
        let message = "mapping exports no program model; nothing claimed, nothing checked";
        report.push(Diagnostic::note("SL000", subject, message));
        return report;
    };
    let sram = platform
        .epiphany_params()
        .map_or_else(SramParams::default, |p| p.sram);
    report.merge(analyze_model(model, &sram));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Json;
    use sar_epiphany::{configured, mapping_named};
    use sim_harness::{platform_named, Severity};

    fn pair(mapping: &str, platform: &str) -> Report {
        let m = mapping_named(mapping).expect("mapping resolves");
        let p = platform_named(platform).expect("platform resolves");
        let w = Workload::named(m.kernel(), true).expect("kernel resolves");
        analyze_pair(m.as_ref(), &w, p.as_ref())
    }

    #[test]
    fn registered_epiphany_mappings_are_clean() {
        for name in ["ffbp_seq", "ffbp_spmd", "autofocus_seq", "autofocus_mpmd"] {
            let r = pair(name, "epiphany");
            assert!(r.is_clean(), "{name}: {:?}", r.diagnostics);
        }
    }

    #[test]
    fn modelless_mappings_note_sl000() {
        let r = pair("ffbp_host", "host");
        assert!(r.is_clean());
        assert!(r.has_code("SL000"));
        assert_eq!(r.diagnostics[0].severity, Severity::Note);
    }

    #[test]
    fn reference_cpu_mappings_now_carry_models() {
        for name in ["ffbp_ref", "autofocus_ref"] {
            let r = pair(name, "refcpu");
            assert!(r.is_clean(), "{name}: {:?}", r.diagnostics);
            assert!(!r.has_code("SL000"), "{name} declares a workload model");
        }
    }

    #[test]
    fn unsupported_pairs_note_sl000() {
        let r = pair("ffbp_seq", "host");
        assert!(r.is_clean());
        assert!(r.has_code("SL000"));
    }

    #[test]
    fn undeclared_recovery_warns_on_the_streams_net_only() {
        // The hand-written MPMD driver declares its recovery story
        // (retry + drain-and-restart); the declarative streams network
        // runs the same channel graph with none.
        let covered = pair("autofocus_mpmd", "epiphany");
        assert!(!covered.has_code("SL011"), "{:?}", covered.diagnostics);
        assert!(!covered.has_code("SL012"), "{:?}", covered.diagnostics);
        let bare = pair("autofocus_net", "epiphany");
        assert!(bare.has_code("SL011"));
        assert!(bare.has_code("SL012"));
        assert!(bare.is_clean(), "recovery findings must stay warnings");
    }

    #[test]
    fn scattered_placement_fails_the_hop_budget() {
        let scattered = Json::obj().with("placement", "scattered");
        let pair = configured("autofocus_mpmd", "epiphany", &scattered).unwrap();
        let w = Workload::named("autofocus", true).unwrap();
        let r = analyze_pair(pair.mapping.as_ref(), &w, pair.platform.as_ref());
        assert!(!r.is_clean() && r.has_code("SL005"), "{:?}", r.diagnostics);
    }
}
