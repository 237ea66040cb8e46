//! The Table I harness: run all six configurations and print the
//! paper's table with measured-vs-published columns.

use std::fmt;

use desim::{Json, RunRecord};
use sar_core::autofocus::STAGES;
use sim_harness::{
    run, stamp, AutofocusWorkload, EpiphanyPlatform, FfbpWorkload, Platform, RefCpuPlatform,
    RunContext, Workload,
};

use crate::harness_impls::{ffbp_machine, mapping_named};
use crate::merge_walk::walk;

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

/// The three configurations of Table I — label, whether the machine is
/// the Intel reference — and per kernel (FFBP, autofocus) the mapping
/// that realises it, its cores and the speedup the paper reports.
type Config = (&'static str, bool, [(&'static str, usize, f64); 2]);
const CONFIGS: [Config; 3] = [
    (
        "Sequential on Intel i7 @ 2.67 GHz",
        true,
        [("ffbp_ref", 1, 1.0), ("autofocus_ref", 1, 1.0)],
    ),
    (
        "Sequential on Epiphany @ 1 GHz",
        false,
        [("ffbp_seq", 1, 0.36), ("autofocus_seq", 1, 0.8)],
    ),
    (
        "Parallel on Epiphany @ 1 GHz",
        false,
        [("ffbp_spmd", 16, 4.25), ("autofocus_mpmd", STAGES, 8.93)],
    ),
];

/// The six records of Table I, FFBP's then autofocus's, each stamped as
/// [`sim_harness::run`] stamps it: the three FFBP machines priced on one
/// walk, each autofocus pair run through `run` itself.
fn records(ffbp_w: &FfbpWorkload, af_w: &AutofocusWorkload) -> Vec<RunRecord> {
    let ctx = RunContext::plain();
    let platforms = CONFIGS.map(|(_, on_intel, _)| -> Box<dyn Platform> {
        if on_intel {
            Box::new(RefCpuPlatform::default())
        } else {
            Box::new(EpiphanyPlatform::default())
        }
    });
    let named = |kernel: usize| CONFIGS.map(|(_, _, per_kernel)| per_kernel[kernel].0);
    let machines = (named(0).iter().zip(&platforms))
        .map(|(name, p)| ffbp_machine(name, p.as_ref()).expect("a registered FFBP machine"))
        .collect();
    let (_, mut records) = walk(ffbp_w, &ctx, machines);
    for ((record, name), p) in records.iter_mut().zip(named(0)).zip(&platforms) {
        let mapping = mapping_named(name).expect("Table I mappings are registered");
        stamp(record, mapping.as_ref(), p.as_ref(), &ctx);
    }
    let af = Workload::Autofocus(af_w.clone());
    for (name, p) in named(1).iter().zip(&platforms) {
        let mapping = mapping_named(name).expect("Table I mappings are registered");
        let ran = run(mapping.as_ref(), &af, p.as_ref());
        records.push(ran.expect("Table I pairs are all supported").record);
    }
    records
}

/// One kernel's rows of Table I (column `kernel` of [`CONFIGS`]) from
/// its three records; `pixels` is set for the kernel whose rows report
/// a throughput.
fn kernel_rows(kernel: usize, records: &[RunRecord], pixels: Option<f64>) -> Vec<Table1Row> {
    let t_ref = records[0].elapsed.seconds();
    (CONFIGS.iter().zip(records))
        .map(|(&(label, on_intel, per_kernel), record)| {
            let (_, cores, paper_speedup) = per_kernel[kernel];
            let secs = record.elapsed.seconds();
            Table1Row {
                label: label.into(),
                cores,
                time_ms: record.millis(),
                throughput_px_s: pixels.map(|px| px / secs),
                speedup: t_ref / secs,
                paper_speedup,
                power_w: if on_intel {
                    INTEL_POWER_W
                } else {
                    EPIPHANY_POWER_W
                },
                modeled_power_w: (!on_intel).then(|| record.avg_power_w()),
            }
        })
        .collect()
}

/// Run all six configurations of Table I.
pub fn table1(ffbp_w: &FfbpWorkload, af_w: &AutofocusWorkload) -> Table1 {
    let records = records(ffbp_w, af_w);
    let ffbp = kernel_rows(0, &records[..3], None);
    let autofocus = kernel_rows(1, &records[3..], Some(af_w.pixels() as f64));

    // Energy efficiency as the paper computes it: throughput per watt
    // from datasheet power.
    let power_ratio = INTEL_POWER_W / EPIPHANY_POWER_W;
    Table1 {
        ffbp_energy_ratio: ffbp[2].speedup * power_ratio,
        autofocus_energy_ratio: autofocus[2].speedup * power_ratio,
        ffbp_parallel_vs_seq: records[1].elapsed.seconds() / records[2].elapsed.seconds(),
        autofocus_parallel_vs_seq: records[4].elapsed.seconds() / records[5].elapsed.seconds(),
        ffbp,
        autofocus,
        records,
    }
}

impl Table1Row {
    /// Serialise to a JSON object.
    pub fn to_json(&self) -> Json {
        let or_null = |v: Option<f64>| v.map_or(Json::Null, Json::from);
        Json::obj()
            .with("label", self.label.as_str())
            .with("cores", self.cores)
            .with("time_ms", self.time_ms)
            .with("throughput_px_s", or_null(self.throughput_px_s))
            .with("speedup", self.speedup)
            .with("paper_speedup", self.paper_speedup)
            .with("power_w", self.power_w)
            .with("modeled_power_w", or_null(self.modeled_power_w))
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
