//! Dynamic cross-check (`SL009`, `SL010`, `SL016`): replay one traced
//! run and verify the declarations against what the machine model
//! actually observed.
//!
//! * `SL009` (hard) — a remote landing (posted write, inbound DMA
//!   burst) targets a `(core, bank)` slot no declared buffer covers at
//!   the observed size: the model does not describe the run.
//! * `SL010` — the converse: hard when the traced run itself fails
//!   (nothing can corroborate the claims), warning when a declared
//!   buffer's `(core, bank)` slot never received any landing (the
//!   model over-declares what the driver does).
//! * `SL016` (warning) — model drift: the run's aggregated activity
//!   counters (off-chip reads/writes, DMA bytes, remote writes, flag
//!   waits) fall outside the totals the per-phase workload
//!   declarations imply. This is the closed loop behind the static
//!   cost model: the same declarations `sarlint::cost` prices are
//!   checked against the simulated `RunRecord`.
//!
//! The chip emits a gated `land:bank{bank}+{bytes}` instant on
//! [`Track::Dma`] at every remote landing; this module parses the
//! snapshot back.

use std::collections::BTreeSet;

use desim::trace::{Tracer, Track};
use desim::RunRecord;
use sim_harness::{
    run_traced, Bound, Diagnostic, Mapping, Platform, ProgramModel, Report, Workload,
};

/// One observed remote landing, parsed from the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Landing {
    core: usize,
    bank: usize,
    bytes: u32,
}

/// Parse `land:bank{bank}+{bytes}` emitted on a DMA track.
fn parse_landing(track: Track, name: &str) -> Option<Landing> {
    let Track::Dma(core) = track else {
        return None;
    };
    let rest = name.strip_prefix("land:bank")?;
    let (bank, bytes) = rest.split_once('+')?;
    Some(Landing {
        core: core as usize,
        bank: bank.parse().ok()?,
        bytes: bytes.parse().ok()?,
    })
}

/// Whether `model` declares a buffer that can absorb `l`.
fn declared(model: &ProgramModel, l: Landing) -> bool {
    model
        .buffers
        .iter()
        .any(|b| b.core == l.core && b.bank == l.bank && b.bytes >= l.bytes)
}

/// The run-total bounds the per-phase workload declarations imply for
/// the chip's aggregated activity counters, keyed by counter slot
/// name. Empty when the model declares no workload.
fn declared_totals(model: &ProgramModel) -> Vec<(&'static str, Bound)> {
    if !model.has_workload() {
        return Vec::new();
    }
    let mut ext_read = Bound::zero();
    let mut ext_read_bytes = Bound::zero();
    let mut ext_write = Bound::zero();
    let mut ext_write_bytes = Bound::zero();
    let mut dma_bytes = Bound::zero();
    let mut remote_write = Bound::zero();
    let mut remote_write_bytes = Bound::zero();
    let mut flag_wait = Bound::zero();
    for ph in &model.workload {
        let r = ph.rounds as f64;
        for w in &ph.work {
            ext_read += w.ext_read_msgs.scaled(r);
            ext_read_bytes += w.ext_read_bytes.scaled(r);
            ext_write += w.ext_write_msgs.scaled(r);
            ext_write_bytes += w.ext_write_bytes.scaled(r);
            dma_bytes += w.dma_bytes.scaled(r);
            flag_wait += w.flag_waits.scaled(r);
        }
        for t in &ph.traffic {
            remote_write += t.messages.scaled(r);
            remote_write_bytes += t.bytes.scaled(r);
        }
    }
    vec![
        ("ext_read", ext_read),
        ("ext_read_bytes", ext_read_bytes),
        ("ext_write", ext_write),
        ("ext_write_bytes", ext_write_bytes),
        ("dma_bytes", dma_bytes),
        ("remote_write", remote_write),
        ("remote_write_bytes", remote_write_bytes),
        ("flag_wait", flag_wait),
    ]
}

/// `SL016` model drift: every observed counter total must fall inside
/// the interval the declarations imply. Missing counters read as zero
/// (the reference CPU has no mesh counters; its models declare no
/// mesh traffic either).
fn check_drift(model: &ProgramModel, record: &RunRecord, report: &mut Report) {
    for (slot, bound) in declared_totals(model) {
        let observed = record.counters.get(slot) as f64;
        if !bound.contains(observed) {
            report.push(Diagnostic::warning(
                "SL016",
                slot.to_string(),
                format!(
                    "model drift: run observed {observed} but the workload \
                     declarations imply [{}, {}]",
                    bound.lo, bound.hi
                ),
            ));
        }
    }
}

/// Run the pair once with tracing on and cross-check every observed
/// landing against the model's declared buffers, plus the counter
/// totals against the declared workload.
pub fn cross_check(mapping: &dyn Mapping, workload: &Workload, platform: &dyn Platform) -> Report {
    let model = mapping.program_model(workload, platform);
    cross_check_with(mapping, workload, platform, model.as_ref())
}

/// [`cross_check`] with the pair's already-resolved program model
/// ([`crate::pair_model`]).
pub fn cross_check_with(
    mapping: &dyn Mapping,
    workload: &Workload,
    platform: &dyn Platform,
    model: Option<&ProgramModel>,
) -> Report {
    let mut report = Report::new();
    let Some(model) = model else {
        report.push(Diagnostic::note(
            "SL000",
            mapping.name().to_string(),
            "mapping exports no program model; nothing to cross-check".to_string(),
        ));
        return report;
    };
    let tracer = Tracer::enabled();
    let run = match run_traced(mapping, workload, platform, &tracer) {
        Ok(run) => run,
        Err(e) => {
            report.push(Diagnostic::hard(
                "SL010",
                mapping.name().to_string(),
                format!("traced run failed during dynamic cross-check: {e}"),
            ));
            return report;
        }
    };

    let mut seen = 0u64;
    let mut flagged: BTreeSet<Landing> = BTreeSet::new();
    let mut landed_slots: BTreeSet<(usize, usize)> = BTreeSet::new();
    for e in tracer.snapshot() {
        let Some(l) = parse_landing(e.track, e.name.as_ref()) else {
            continue;
        };
        seen += 1;
        landed_slots.insert((l.core, l.bank));
        if !declared(model, l) && flagged.insert(l) {
            report.push(Diagnostic::hard(
                "SL009",
                mapping.name().to_string(),
                format!(
                    "observed a {} B landing in core {} bank {} with no declared \
                     buffer that large there: the model does not cover the run",
                    l.bytes, l.core, l.bank
                ),
            ));
        }
    }
    if seen == 0 {
        report.push(Diagnostic::note(
            "SL000",
            mapping.name().to_string(),
            "run emitted no remote landings; dynamic check is vacuous".to_string(),
        ));
    } else {
        // The over-declared direction: a buffer slot that never
        // received a landing claims communication the driver does not
        // perform. Per (core, bank) rather than per buffer — multiple
        // same-bank inboxes receive indistinguishable landings.
        let mut over: BTreeSet<(usize, usize)> = BTreeSet::new();
        for b in &model.buffers {
            if !landed_slots.contains(&(b.core, b.bank)) && over.insert((b.core, b.bank)) {
                report.push(Diagnostic::warning(
                    "SL010",
                    b.label.clone(),
                    format!(
                        "declared buffer in core {} bank {} never received a \
                         landing: the model over-declares the run",
                        b.core, b.bank
                    ),
                ));
            }
        }
    }
    check_drift(model, &run.record, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Cycle;

    #[test]
    fn landing_lines_parse_and_others_do_not() {
        let l = parse_landing(Track::Dma(7), "land:bank2+8008").unwrap();
        assert_eq!((l.core, l.bank, l.bytes), (7, 2, 8008));
        assert!(parse_landing(Track::Core(7), "land:bank2+8008").is_none());
        assert!(parse_landing(Track::Dma(7), "dma_in").is_none());
        assert!(parse_landing(Track::Dma(7), "land:bank+8").is_none());
        assert!(parse_landing(Track::Dma(7), "land:bank2+x").is_none());
    }

    #[test]
    fn declared_requires_matching_slot_and_size() {
        let mut m = ProgramModel::new(4, 4);
        m.buffer("inbox", 3, 0, 0, 768);
        let hit = |core, bank, bytes| declared(&m, Landing { core, bank, bytes });
        assert!(hit(3, 0, 768));
        assert!(hit(3, 0, 128));
        assert!(!hit(3, 0, 769));
        assert!(!hit(3, 1, 8));
        assert!(!hit(2, 0, 8));
    }

    #[test]
    fn tracer_snapshot_round_trips_a_landing() {
        let t = Tracer::enabled();
        t.instant(Track::Dma(5), "land:bank0+384", Cycle(10));
        let hits: Vec<Landing> = t
            .snapshot()
            .iter()
            .filter_map(|e| parse_landing(e.track, e.name.as_ref()))
            .collect();
        assert_eq!(
            hits,
            vec![Landing {
                core: 5,
                bank: 0,
                bytes: 384
            }]
        );
    }
}
