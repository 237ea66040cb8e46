//! The dynamic cross-check end to end: a truthful mapping passes, a
//! mapping whose model under-declares its landing sites is caught
//! (`SL009`), one that over-declares a buffer is flagged (`SL010`
//! warning), one whose workload declarations disagree with the run's
//! counters drifts (`SL016`), and a landing-free run reports the
//! vacuous note.

use sar_epiphany::mapping_named;
use sarlint::dynamic::cross_check;
use sim_harness::{
    platform_named, Bound, HarnessError, Mapping, MappingRun, Platform, PlatformKind, ProgramModel,
    RunContext, Severity, Workload,
};

/// `autofocus_mpmd`, executed as registered, but exporting its program
/// model through `corrupt` — what the run does and what the model
/// declares no longer agree.
struct Corrupted {
    inner: Box<dyn Mapping>,
    corrupt: fn(&mut ProgramModel),
}

impl Corrupted {
    fn mpmd(corrupt: fn(&mut ProgramModel)) -> Corrupted {
        let inner = mapping_named("autofocus_mpmd").expect("registered");
        Corrupted { inner, corrupt }
    }
}

impl Mapping for Corrupted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn kernel(&self) -> &'static str {
        self.inner.kernel()
    }
    fn supports(&self, kind: PlatformKind) -> bool {
        self.inner.supports(kind)
    }
    fn execute(
        &self,
        workload: &Workload,
        platform: &dyn Platform,
        ctx: &RunContext,
    ) -> Result<MappingRun, HarnessError> {
        self.inner.execute(workload, platform, ctx)
    }
    fn program_model(&self, workload: &Workload, platform: &dyn Platform) -> Option<ProgramModel> {
        let mut m = self.inner.program_model(workload, platform)?;
        (self.corrupt)(&mut m);
        Some(m)
    }
}

/// Every inbox shrunk to a single word — the run's observed landings
/// can no longer be covered by the declarations.
fn under_declare(m: &mut ProgramModel) {
    for b in &mut m.buffers {
        b.bytes = 8;
    }
}

/// One extra inbox on a core the driver never writes to (bank 3 of
/// core 0 receives nothing in the pipeline drivers).
fn over_declare(m: &mut ProgramModel) {
    m.buffer("phantom_inbox", 0, 3, 0, 64);
}

/// Every declared flag-wait count inflated far beyond what the driver
/// performs.
fn drift(m: &mut ProgramModel) {
    for ph in &mut m.workload {
        for w in &mut ph.work {
            w.flag_waits = Bound::exact(1e6);
        }
    }
}

#[test]
fn truthful_pipeline_mapping_passes_the_cross_check() {
    let m = mapping_named("autofocus_mpmd").expect("registered");
    let w = Workload::named("autofocus", true).expect("registered");
    let p = platform_named("epiphany").expect("registered");
    let r = cross_check(m.as_ref(), &w, p.as_ref());
    assert!(r.is_clean(), "{:?}", r.diagnostics);
    // The check must not be vacuous: the run emitted landings, so no
    // SL000 note either.
    assert!(!r.has_code("SL000"), "{:?}", r.diagnostics);
}

#[test]
fn truthful_spmd_mapping_passes_the_cross_check() {
    let m = mapping_named("ffbp_spmd").expect("registered");
    let w = Workload::named("ffbp", true).expect("registered");
    let p = platform_named("epiphany").expect("registered");
    let r = cross_check(m.as_ref(), &w, p.as_ref());
    assert!(r.is_clean(), "{:?}", r.diagnostics);
    assert!(!r.has_code("SL000"), "{:?}", r.diagnostics);
}

#[test]
fn under_declared_model_is_caught_as_sl009() {
    let m = Corrupted::mpmd(under_declare);
    let w = Workload::named("autofocus", true).expect("registered");
    let p = platform_named("epiphany").expect("registered");
    let r = cross_check(&m, &w, p.as_ref());
    assert!(!r.is_clean());
    assert!(r.has_code("SL009"), "{:?}", r.diagnostics);
}

#[test]
fn over_declared_buffer_warns_as_sl010() {
    let m = Corrupted::mpmd(over_declare);
    let w = Workload::named("autofocus", true).expect("registered");
    let p = platform_named("epiphany").expect("registered");
    let r = cross_check(&m, &w, p.as_ref());
    // Over-declaration is a smell, not a gate: the report stays clean.
    assert!(r.is_clean(), "{:?}", r.diagnostics);
    let d = r
        .diagnostics
        .iter()
        .find(|d| d.code == "SL010")
        .expect("phantom inbox flagged");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.subject, "phantom_inbox");
    assert!(
        d.message.contains("never received a landing"),
        "{}",
        d.message
    );
}

#[test]
fn counter_drift_warns_as_sl016() {
    let m = Corrupted::mpmd(drift);
    let w = Workload::named("autofocus", true).expect("registered");
    let p = platform_named("epiphany").expect("registered");
    let r = cross_check(&m, &w, p.as_ref());
    assert!(r.is_clean(), "{:?}", r.diagnostics);
    let d = r
        .diagnostics
        .iter()
        .find(|d| d.code == "SL016")
        .expect("inflated flag waits drift");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.subject, "flag_wait");
    assert!(d.message.contains("model drift"), "{}", d.message);
}

#[test]
fn landing_free_run_reports_the_vacuous_note() {
    // The reference-CPU mapping now carries a workload model, but its
    // run performs no remote landings — the landing check is vacuous
    // and says so, while the counter drift check still runs silently.
    let m = mapping_named("ffbp_ref").expect("registered");
    let w = Workload::named("ffbp", true).expect("registered");
    let p = platform_named("refcpu").expect("registered");
    let r = cross_check(m.as_ref(), &w, p.as_ref());
    assert!(r.is_clean());
    assert!(r.has_code("SL000"));
    assert!(!r.has_code("SL016"), "{:?}", r.diagnostics);
}
