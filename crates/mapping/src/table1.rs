//! The Table I harness: run all six configurations and print the
//! paper's table with measured-vs-published columns.

use std::fmt;

use desim::Json;
use sim_harness::{
    run, AutofocusWorkload, EpiphanyPlatform, FfbpWorkload, MappingRun, RefCpuPlatform, Workload,
};

use crate::harness_impls::mapping_named;

pub use sim_harness::{EPIPHANY_POWER_W, INTEL_POWER_W};

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Configuration label.
    pub label: String,
    /// Cores used.
    pub cores: usize,
    /// Measured (simulated) execution time, milliseconds.
    pub time_ms: f64,
    /// Throughput in criterion pixels per second (autofocus rows).
    pub throughput_px_s: Option<f64>,
    /// Measured speedup over the Intel row of the same kernel.
    pub speedup: f64,
    /// Speedup the paper reports for this row.
    pub paper_speedup: f64,
    /// Datasheet power attributed to the configuration, watts.
    pub power_w: f64,
    /// Fine-grained modelled power (Epiphany rows only), watts.
    pub modeled_power_w: Option<f64>,
}

/// The whole table plus the derived energy-efficiency ratios.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// FFBP rows: Intel, Epiphany x1, Epiphany x16.
    pub ffbp: Vec<Table1Row>,
    /// Autofocus rows: Intel, Epiphany x1, Epiphany x13.
    pub autofocus: Vec<Table1Row>,
    /// Throughput-per-watt advantage of parallel-Epiphany FFBP over
    /// the Intel reference (paper: 38x).
    pub ffbp_energy_ratio: f64,
    /// Same for autofocus (paper: 78x).
    pub autofocus_energy_ratio: f64,
    /// FFBP parallel over sequential-Epiphany speedup (paper: 11.7x).
    pub ffbp_parallel_vs_seq: f64,
    /// Autofocus parallel over sequential-Epiphany (paper: 10.9x).
    pub autofocus_parallel_vs_seq: f64,
    /// The six underlying records (FFBP ref/seq/par, then autofocus
    /// ref/seq/par), for bench documents; not part of
    /// [`Table1::to_json`], which keeps the golden-baseline row shape.
    pub records: Vec<desim::RunRecord>,
}

/// Run all six configurations of Table I, each through the harness's
/// single entry point ([`sim_harness::run`]) on its Table I platform.
pub fn table1(ffbp_w: &FfbpWorkload, af_w: &AutofocusWorkload) -> Table1 {
    let intel = RefCpuPlatform::default();
    let epiphany = EpiphanyPlatform::default();
    let pair = |mapping: &str, workload: &Workload, on_intel: bool| -> MappingRun {
        let mapping = mapping_named(mapping).expect("Table I mappings are all registered");
        let platform: &dyn sim_harness::Platform = if on_intel { &intel } else { &epiphany };
        run(mapping.as_ref(), workload, platform).expect("Table I pairs are all supported")
    };

    // --- FFBP ---
    let ffbp_workload = Workload::Ffbp(ffbp_w.clone());
    let f_ref = pair("ffbp_ref", &ffbp_workload, true);
    let f_seq = pair("ffbp_seq", &ffbp_workload, false);
    let f_par = pair("ffbp_spmd", &ffbp_workload, false);
    let t_ref = f_ref.record.elapsed.seconds();

    let ffbp = vec![
        Table1Row {
            label: "Sequential on Intel i7 @ 2.67 GHz".into(),
            cores: 1,
            time_ms: f_ref.record.millis(),
            throughput_px_s: None,
            speedup: 1.0,
            paper_speedup: 1.0,
            power_w: INTEL_POWER_W,
            modeled_power_w: None,
        },
        Table1Row {
            label: "Sequential on Epiphany @ 1 GHz".into(),
            cores: 1,
            time_ms: f_seq.record.millis(),
            throughput_px_s: None,
            speedup: t_ref / f_seq.record.elapsed.seconds(),
            paper_speedup: 0.36,
            power_w: EPIPHANY_POWER_W,
            modeled_power_w: Some(f_seq.record.avg_power_w()),
        },
        Table1Row {
            label: "Parallel on Epiphany @ 1 GHz".into(),
            cores: 16,
            time_ms: f_par.record.millis(),
            throughput_px_s: None,
            speedup: t_ref / f_par.record.elapsed.seconds(),
            paper_speedup: 4.25,
            power_w: EPIPHANY_POWER_W,
            modeled_power_w: Some(f_par.record.avg_power_w()),
        },
    ];

    // --- Autofocus ---
    let af_workload = Workload::Autofocus(af_w.clone());
    let a_ref = pair("autofocus_ref", &af_workload, true);
    let a_seq = pair("autofocus_seq", &af_workload, false);
    let a_par = pair("autofocus_mpmd", &af_workload, false);
    let px = af_w.pixels() as f64;
    let thr = |secs: f64| px / secs;
    let t_aref = a_ref.record.elapsed.seconds();

    let autofocus = vec![
        Table1Row {
            label: "Sequential on Intel i7 @ 2.67 GHz".into(),
            cores: 1,
            time_ms: a_ref.record.millis(),
            throughput_px_s: Some(thr(t_aref)),
            speedup: 1.0,
            paper_speedup: 1.0,
            power_w: INTEL_POWER_W,
            modeled_power_w: None,
        },
        Table1Row {
            label: "Sequential on Epiphany @ 1 GHz".into(),
            cores: 1,
            time_ms: a_seq.record.millis(),
            throughput_px_s: Some(thr(a_seq.record.elapsed.seconds())),
            speedup: t_aref / a_seq.record.elapsed.seconds(),
            paper_speedup: 0.8,
            power_w: EPIPHANY_POWER_W,
            modeled_power_w: Some(a_seq.record.avg_power_w()),
        },
        Table1Row {
            label: "Parallel on Epiphany @ 1 GHz".into(),
            cores: 13,
            time_ms: a_par.record.millis(),
            throughput_px_s: Some(thr(a_par.record.elapsed.seconds())),
            speedup: t_aref / a_par.record.elapsed.seconds(),
            paper_speedup: 8.93,
            power_w: EPIPHANY_POWER_W,
            modeled_power_w: Some(a_par.record.avg_power_w()),
        },
    ];

    // Energy efficiency as the paper computes it: throughput per watt
    // from datasheet power.
    let ffbp_energy_ratio = ffbp[2].speedup * (INTEL_POWER_W / EPIPHANY_POWER_W);
    let autofocus_energy_ratio = autofocus[2].speedup * (INTEL_POWER_W / EPIPHANY_POWER_W);

    Table1 {
        ffbp_parallel_vs_seq: f_seq.record.elapsed.seconds() / f_par.record.elapsed.seconds(),
        autofocus_parallel_vs_seq: a_seq.record.elapsed.seconds() / a_par.record.elapsed.seconds(),
        ffbp,
        autofocus,
        ffbp_energy_ratio,
        autofocus_energy_ratio,
        records: vec![
            f_ref.record,
            f_seq.record,
            f_par.record,
            a_ref.record,
            a_seq.record,
            a_par.record,
        ],
    }
}

impl Table1Row {
    /// Serialise to a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("label", self.label.as_str())
            .with("cores", self.cores)
            .with("time_ms", self.time_ms)
            .with(
                "throughput_px_s",
                match self.throughput_px_s {
                    Some(v) => Json::from(v),
                    None => Json::Null,
                },
            )
            .with("speedup", self.speedup)
            .with("paper_speedup", self.paper_speedup)
            .with("power_w", self.power_w)
            .with(
                "modeled_power_w",
                match self.modeled_power_w {
                    Some(v) => Json::from(v),
                    None => Json::Null,
                },
            )
    }
}

impl Table1 {
    /// Serialise to a JSON object (the golden-record baseline shape).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with(
                "ffbp",
                Json::Arr(self.ffbp.iter().map(Table1Row::to_json).collect()),
            )
            .with(
                "autofocus",
                Json::Arr(self.autofocus.iter().map(Table1Row::to_json).collect()),
            )
            .with("ffbp_energy_ratio", self.ffbp_energy_ratio)
            .with("autofocus_energy_ratio", self.autofocus_energy_ratio)
            .with("ffbp_parallel_vs_seq", self.ffbp_parallel_vs_seq)
            .with("autofocus_parallel_vs_seq", self.autofocus_parallel_vs_seq)
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TABLE I — Resources, Performance, and Estimated Power (measured by the model | paper)"
        )?;
        writeln!(f, "\nFFBP implementations")?;
        writeln!(
            f,
            "{:<38} {:>5} {:>12} {:>9} {:>7} {:>8}",
            "", "cores", "time (ms)", "speedup", "paper", "power W"
        )?;
        for row in &self.ffbp {
            writeln!(
                f,
                "{:<38} {:>5} {:>12.1} {:>8.2}x {:>6.2}x {:>8.1}",
                row.label, row.cores, row.time_ms, row.speedup, row.paper_speedup, row.power_w
            )?;
        }
        writeln!(f, "\nAutofocus implementations")?;
        writeln!(
            f,
            "{:<38} {:>5} {:>14} {:>9} {:>7} {:>8}",
            "", "cores", "px/s", "speedup", "paper", "power W"
        )?;
        for row in &self.autofocus {
            writeln!(
                f,
                "{:<38} {:>5} {:>14.0} {:>8.2}x {:>6.2}x {:>8.1}",
                row.label,
                row.cores,
                row.throughput_px_s.unwrap_or(0.0),
                row.speedup,
                row.paper_speedup,
                row.power_w
            )?;
        }
        writeln!(f, "\nDerived figures (measured | paper)")?;
        writeln!(
            f,
            "  FFBP parallel vs sequential Epiphany : {:>6.2}x | 11.7x",
            self.ffbp_parallel_vs_seq
        )?;
        writeln!(
            f,
            "  AF   parallel vs sequential Epiphany : {:>6.2}x | 10.9x",
            self.autofocus_parallel_vs_seq
        )?;
        writeln!(
            f,
            "  FFBP energy efficiency vs Intel      : {:>6.1}x | 38x",
            self.ffbp_energy_ratio
        )?;
        writeln!(
            f,
            "  AF   energy efficiency vs Intel      : {:>6.1}x | 78x",
            self.autofocus_energy_ratio
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_table_has_the_paper_shape() {
        // The small workload exercises the full harness quickly. The
        // *shape* must match the paper: sequential Epiphany loses to
        // Intel on FFBP, parallel wins on both kernels, and the energy
        // advantage is large.
        let t = table1(&FfbpWorkload::small(), &AutofocusWorkload::small());
        assert_eq!(t.ffbp.len(), 3);
        assert_eq!(t.autofocus.len(), 3);
        assert!(t.ffbp[1].speedup < 1.0, "seq Epiphany must lose on FFBP");
        assert!(t.ffbp[2].speedup > 1.0, "16 cores must win on FFBP");
        assert!(
            t.autofocus[2].speedup > 1.0,
            "13 cores must win on autofocus"
        );
        assert!(
            t.ffbp_energy_ratio > 8.75,
            "energy ratio must exceed the pure power ratio"
        );
        assert!(t.ffbp_parallel_vs_seq > 4.0);
        assert!(t.autofocus_parallel_vs_seq > 2.0);
        let s = format!("{t}");
        assert!(s.contains("TABLE I"));
        assert!(s.contains("38x"));
        assert_eq!(t.records.len(), 6, "one record per configuration");
        for r in &t.records {
            assert!(!r.kernel.is_empty() && !r.mapping.is_empty() && !r.platform.is_empty());
        }
    }
}
