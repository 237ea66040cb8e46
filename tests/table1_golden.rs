//! Golden-record regression for Table I: the checked-in baseline
//! (`results/table1_baseline.json`, written by
//! `cargo run -p bench --bin table1 -- --small --out results/table1_baseline.json`)
//! must match a fresh small-scale run row for row. The model is fully
//! deterministic, so times are compared at ±1e-9 relative — any drift
//! means a timing-model change that must be deliberate (regenerate the
//! baseline and say why in the commit).

use sar_repro::desim::Json;
use sar_repro::sar_epiphany::{table1, Table1Row};
use sar_repro::sim_harness::{AutofocusWorkload, FfbpWorkload, RUN_RECORD_VERSION};

const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= REL_TOL * b.abs().max(1e-300),
        "{what}: fresh {a} vs baseline {b}"
    );
}

fn check_row(fresh: &Table1Row, baseline: &Json, kernel: &str, i: usize) {
    let ctx = |field: &str| format!("{kernel} row {i} {field}");
    let num = |key: &str| baseline.get(key).and_then(Json::as_f64);
    assert_eq!(
        baseline.get("label").and_then(Json::as_str),
        Some(fresh.label.as_str()),
        "{}",
        ctx("label")
    );
    assert_eq!(
        baseline.get("cores").and_then(Json::as_u64),
        Some(fresh.cores as u64),
        "{}",
        ctx("cores")
    );
    close(fresh.time_ms, num("time_ms").unwrap(), &ctx("time_ms"));
    close(fresh.speedup, num("speedup").unwrap(), &ctx("speedup"));
    close(fresh.power_w, num("power_w").unwrap(), &ctx("power_w"));
    match (fresh.throughput_px_s, num("throughput_px_s")) {
        (Some(a), Some(b)) => close(a, b, &ctx("throughput_px_s")),
        (None, None) => {}
        (a, b) => panic!("{}: fresh {a:?} vs baseline {b:?}", ctx("throughput_px_s")),
    }
    match (fresh.modeled_power_w, num("modeled_power_w")) {
        (Some(a), Some(b)) => close(a, b, &ctx("modeled_power_w")),
        (None, None) => {}
        (a, b) => panic!("{}: fresh {a:?} vs baseline {b:?}", ctx("modeled_power_w")),
    }
}

#[test]
fn table1_small_matches_the_checked_in_baseline() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/table1_baseline.json"
    ))
    .expect("baseline file must be checked in");
    let doc = Json::parse(&text).expect("baseline parses");
    assert_eq!(
        doc.get("version").and_then(Json::as_u64),
        Some(u64::from(RUN_RECORD_VERSION)),
        "baseline was written by a different record version — regenerate it"
    );
    assert_eq!(
        doc.get("records")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(6),
        "one record per Table I configuration"
    );

    let fresh = table1(&FfbpWorkload::small(), &AutofocusWorkload::small());
    let table = doc.get("table").expect("baseline carries the table rows");
    for (kernel, fresh_rows) in [("ffbp", &fresh.ffbp), ("autofocus", &fresh.autofocus)] {
        let rows = table
            .get(kernel)
            .and_then(Json::as_array)
            .expect("kernel rows");
        assert_eq!(rows.len(), fresh_rows.len());
        for (i, (f, b)) in fresh_rows.iter().zip(rows).enumerate() {
            check_row(f, b, kernel, i);
        }
    }
    let ratio = |key: &str| table.get(key).and_then(Json::as_f64).unwrap();
    close(
        fresh.ffbp_energy_ratio,
        ratio("ffbp_energy_ratio"),
        "ffbp_energy_ratio",
    );
    close(
        fresh.autofocus_energy_ratio,
        ratio("autofocus_energy_ratio"),
        "autofocus_energy_ratio",
    );
    close(
        fresh.ffbp_parallel_vs_seq,
        ratio("ffbp_parallel_vs_seq"),
        "ffbp_parallel_vs_seq",
    );
    close(
        fresh.autofocus_parallel_vs_seq,
        ratio("autofocus_parallel_vs_seq"),
        "autofocus_parallel_vs_seq",
    );
}
